//! Simulated-system configuration (Table I of the paper).

use uvm_util::{impl_json_struct, FromJson, Json, JsonError, ToJson};

use crate::error::ConfigError;

/// TLB geometry and access latency.
///
/// # Examples
///
/// ```
/// use uvm_types::TlbConfig;
///
/// let l1 = TlbConfig { entries: 128, ways: 128, latency_cycles: 1 };
/// assert_eq!(l1.sets(), 1); // fully associative
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: u32,
    /// Associativity. `ways == entries` means fully associative.
    pub ways: u32,
    /// Lookup latency in core cycles.
    pub latency_cycles: u32,
}

impl TlbConfig {
    /// Number of sets (`entries / ways`).
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries` is zero, `ways` is zero, or
    /// `ways` does not divide `entries`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::invalid("tlb.entries", "must be nonzero"));
        }
        if self.ways == 0 || !self.entries.is_multiple_of(self.ways) {
            return Err(ConfigError::invalid(
                "tlb.ways",
                "must be nonzero and divide entries",
            ));
        }
        Ok(())
    }
}

impl_json_struct!(TlbConfig {
    entries,
    ways,
    latency_cycles
});

/// Geometry of the GPU-side hit-information record cache (HIR, Section IV-B).
///
/// The paper's configuration is an 8-way set-associative cache with 1024
/// entries and 2-bit per-page reference counters (10 KB total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HirGeometry {
    /// Total number of entries (paper: 1024).
    pub entries: u32,
    /// Associativity (paper: 8).
    pub ways: u32,
    /// Bits per per-page reference counter (paper: 2, saturating at 3).
    pub counter_bits: u32,
}

impl HirGeometry {
    /// The paper's HIR configuration: 1024 entries, 8-way, 2-bit counters.
    pub fn paper_default() -> Self {
        HirGeometry {
            entries: 1024,
            ways: 8,
            counter_bits: 2,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }

    /// Saturation value of a per-page counter (`2^counter_bits - 1`).
    pub fn counter_max(&self) -> u32 {
        (1 << self.counter_bits) - 1
    }

    /// Storage cost in bytes assuming a 48-bit tag and
    /// `pages_per_set * counter_bits` data bits, rounded up per entry
    /// (Section V-C arrives at 10 bytes/entry for 16 pages × 2 bits).
    pub fn storage_bytes(&self, pages_per_set: u32) -> u64 {
        let bits_per_entry = 48 + pages_per_set as u64 * self.counter_bits as u64;
        self.entries as u64 * bits_per_entry.div_ceil(8)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is degenerate (zero entries or
    /// ways, ways not dividing entries, or zero-width counters).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::invalid("hir.entries", "must be nonzero"));
        }
        if self.ways == 0 || !self.entries.is_multiple_of(self.ways) {
            return Err(ConfigError::invalid(
                "hir.ways",
                "must be nonzero and divide entries",
            ));
        }
        if self.counter_bits == 0 || self.counter_bits > 8 {
            return Err(ConfigError::invalid("hir.counter_bits", "must be in 1..=8"));
        }
        Ok(())
    }
}

impl Default for HirGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl_json_struct!(HirGeometry {
    entries,
    ways,
    counter_bits
});

/// Oversubscription rate: the fraction of the application footprint that
/// fits in GPU memory (Section V evaluates 75% and 50%).
///
/// # Examples
///
/// ```
/// use uvm_types::Oversubscription;
///
/// assert_eq!(Oversubscription::Rate75.capacity_pages(1000), 750);
/// assert_eq!(Oversubscription::Rate50.capacity_pages(1000), 500);
/// // A custom rate clamps capacity to at least one page.
/// assert_eq!(Oversubscription::Custom(0.0001).capacity_pages(1000), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Oversubscription {
    /// 75% of the footprint fits in GPU memory.
    Rate75,
    /// 50% of the footprint fits in GPU memory.
    Rate50,
    /// An arbitrary fraction in `(0, 1]`.
    Custom(f64),
}

impl Oversubscription {
    /// The fraction of the footprint that fits in memory.
    pub fn fraction(self) -> f64 {
        match self {
            Oversubscription::Rate75 => 0.75,
            Oversubscription::Rate50 => 0.50,
            Oversubscription::Custom(f) => f,
        }
    }

    /// GPU memory capacity in pages for a given footprint, at least 1.
    pub fn capacity_pages(self, footprint_pages: u64) -> u64 {
        ((footprint_pages as f64 * self.fraction()).floor() as u64).max(1)
    }

    /// Parses one of the paper's two rates: `75`, `75%`, `50` or `50%`.
    /// Custom fractions are not accepted.
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim_end_matches('%') {
            "75" => Some(Oversubscription::Rate75),
            "50" => Some(Oversubscription::Rate50),
            _ => None,
        }
    }

    /// Short label used in benchmark output ("75%", "50%", ...).
    pub fn label(self) -> String {
        match self {
            Oversubscription::Rate75 => "75%".to_string(),
            Oversubscription::Rate50 => "50%".to_string(),
            Oversubscription::Custom(f) => format!("{:.0}%", f * 100.0),
        }
    }
}

// Serialized in serde's externally-tagged form: unit variants as their
// name strings, `Custom(f)` as `{"Custom": f}`.
impl ToJson for Oversubscription {
    fn to_json(&self) -> Json {
        match self {
            Oversubscription::Rate75 => Json::Str("Rate75".to_string()),
            Oversubscription::Rate50 => Json::Str("Rate50".to_string()),
            Oversubscription::Custom(f) => {
                let mut obj = Json::object();
                obj.insert("Custom", f.to_json());
                obj
            }
        }
    }
}

impl FromJson for Oversubscription {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("Rate75") => return Ok(Oversubscription::Rate75),
            Some("Rate50") => return Ok(Oversubscription::Rate50),
            Some(other) => {
                return Err(JsonError::new(format!(
                    "unknown Oversubscription variant '{other}'"
                )))
            }
            None => {}
        }
        match v.get("Custom") {
            Some(f) => Ok(Oversubscription::Custom(f64::from_json(f)?)),
            None => Err(JsonError::new("expected Oversubscription")),
        }
    }
}

/// Configuration of the simulated GPU system (Table I) plus the HPE
/// parameters fixed by the paper's sensitivity study (Section V-A).
///
/// Construct with [`SimConfig::paper_default`] or through
/// [`SimConfig::builder`].
///
/// # Examples
///
/// ```
/// use uvm_types::SimConfig;
///
/// let cfg = SimConfig::builder()
///     .n_sms(4)
///     .warps_per_sm(2)
///     .page_set_size(8)
///     .build()?;
/// assert_eq!(cfg.page_set_shift(), 3);
/// # Ok::<(), uvm_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of streaming multiprocessors (Table I: 15).
    pub n_sms: u32,
    /// Warps simulated per SM; each warp is an independent instruction
    /// stream that may continue while others wait on far-faults.
    pub warps_per_sm: u32,
    /// Core clock in GHz (Table I: 1.4).
    pub clock_ghz: f64,
    /// Per-SM L1 TLB (Table I: 128-entry, 1-cycle).
    pub l1_tlb: TlbConfig,
    /// Shared L2 TLB (Table I: 512-entry, 16-way, 10-cycle).
    pub l2_tlb: TlbConfig,
    /// Fixed page walk latency in cycles (Section III: 8).
    pub page_walk_cycles: u32,
    /// Fixed cost of the data access itself once translated, in cycles.
    /// The paper abstracts the data path; this keeps memory ops from being
    /// free without modelling caches.
    pub mem_access_cycles: u32,
    /// Page fault service time in microseconds (Table I: 20 µs), covering
    /// driver interaction, eviction decision, and page migration.
    pub fault_service_us: f64,
    /// CPU–GPU interconnect bandwidth in GB/s (Table I: 16).
    pub pcie_gbps: f64,
    /// Pages per page set (Section V-A selects 16; sensitivity tests 8/32).
    pub page_set_size: u32,
    /// HPE interval length in page faults (Section V-A selects 64).
    pub interval_len: u32,
    /// HIR flush ("transfer") interval in page faults (Section V-A: 16).
    pub transfer_interval: u32,
    /// HIR cache geometry.
    pub hir: HirGeometry,
    /// Sequential fault prefetching: on each demand fault, also migrate up
    /// to this many following contiguous non-resident pages in the same
    /// service (0 = off, the paper's configuration). An extension in the
    /// direction Zheng et al. motivate; extra pages pay PCIe transfer time
    /// and may trigger extra evictions.
    pub prefetch_pages: u32,
    /// Fault batching: the driver services up to this many *queued* demand
    /// faults in one 20 µs window, amortizing the fixed handling cost
    /// (real UVM drivers batch up to 256 faults per interrupt; the paper's
    /// model — and the default here — is 1, one fault per service).
    pub fault_batch: u32,
}

impl SimConfig {
    /// The configuration of Table I with the paper's chosen HPE parameters.
    pub fn paper_default() -> Self {
        SimConfig {
            n_sms: 15,
            warps_per_sm: 8,
            clock_ghz: 1.4,
            l1_tlb: TlbConfig {
                entries: 128,
                ways: 128,
                latency_cycles: 1,
            },
            l2_tlb: TlbConfig {
                entries: 512,
                ways: 16,
                latency_cycles: 10,
            },
            page_walk_cycles: 8,
            mem_access_cycles: 4,
            fault_service_us: 20.0,
            pcie_gbps: 16.0,
            page_set_size: 16,
            interval_len: 64,
            transfer_interval: 16,
            hir: HirGeometry::paper_default(),
            prefetch_pages: 0,
            fault_batch: 1,
        }
    }

    /// The configuration used by the reproduction experiments: identical
    /// latencies and structure to [`SimConfig::paper_default`], but with the
    /// TLB reach and warp count scaled down by the same factor (~8x) as the
    /// workload footprints, so that the ratio of TLB reach to footprint —
    /// which controls how much page reuse the eviction policy can observe
    /// at the page-walk level — matches the paper's setup.
    pub fn scaled_default() -> Self {
        let mut cfg = Self::paper_default();
        cfg.warps_per_sm = 2;
        cfg.l1_tlb = TlbConfig {
            entries: 16,
            ways: 16,
            latency_cycles: 1,
        };
        cfg.l2_tlb = TlbConfig {
            entries: 64,
            ways: 8,
            latency_cycles: 10,
        };
        cfg
    }

    /// Starts building a configuration from [`SimConfig::paper_default`].
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: Self::paper_default(),
        }
    }

    /// `log2(page_set_size)`.
    ///
    /// # Panics
    ///
    /// Panics if `page_set_size` is not a power of two; [`Self::validate`]
    /// rejects such configurations first.
    pub fn page_set_shift(&self) -> u32 {
        assert!(
            self.page_set_size.is_power_of_two(),
            "page_set_size must be a power of two"
        );
        self.page_set_size.trailing_zeros()
    }

    /// Page fault service time converted to GPU core cycles
    /// (20 µs × 1.4 GHz = 28,000 cycles for the paper configuration).
    pub fn fault_service_cycles(&self) -> u64 {
        (self.fault_service_us * 1e-6 * self.clock_ghz * 1e9).round() as u64
    }

    /// Cycles to transfer `bytes` over the CPU–GPU interconnect.
    pub fn pcie_transfer_cycles(&self, bytes: u64) -> u64 {
        let secs = bytes as f64 / (self.pcie_gbps * 1e9);
        (secs * self.clock_ghz * 1e9).ceil() as u64
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_sms == 0 {
            return Err(ConfigError::invalid("n_sms", "must be nonzero"));
        }
        if self.warps_per_sm == 0 {
            return Err(ConfigError::invalid("warps_per_sm", "must be nonzero"));
        }
        if !self.clock_ghz.is_finite() || self.clock_ghz <= 0.0 {
            return Err(ConfigError::invalid("clock_ghz", "must be positive"));
        }
        self.l1_tlb.validate()?;
        self.l2_tlb.validate()?;
        if !self.fault_service_us.is_finite() || self.fault_service_us <= 0.0 {
            return Err(ConfigError::invalid("fault_service_us", "must be positive"));
        }
        if !self.pcie_gbps.is_finite() || self.pcie_gbps <= 0.0 {
            return Err(ConfigError::invalid("pcie_gbps", "must be positive"));
        }
        if !self.page_set_size.is_power_of_two() {
            return Err(ConfigError::invalid(
                "page_set_size",
                "must be a power of two",
            ));
        }
        if self.page_set_size > 64 {
            return Err(ConfigError::invalid(
                "page_set_size",
                "must be at most 64 (bit-vector width)",
            ));
        }
        if self.interval_len == 0 {
            return Err(ConfigError::invalid("interval_len", "must be nonzero"));
        }
        if self.transfer_interval == 0 {
            return Err(ConfigError::invalid("transfer_interval", "must be nonzero"));
        }
        if self.prefetch_pages > 64 {
            return Err(ConfigError::invalid("prefetch_pages", "must be at most 64"));
        }
        if self.fault_batch == 0 || self.fault_batch > 256 {
            return Err(ConfigError::invalid("fault_batch", "must be in 1..=256"));
        }
        self.hir.validate()?;
        Ok(())
    }
}

impl_json_struct!(SimConfig {
    n_sms,
    warps_per_sm,
    clock_ghz,
    l1_tlb,
    l2_tlb,
    page_walk_cycles,
    mem_access_cycles,
    fault_service_us,
    pcie_gbps,
    page_set_size,
    interval_len,
    transfer_interval,
    hir,
    prefetch_pages = 0,
    fault_batch = 1,
});

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`SimConfig`]; starts from [`SimConfig::paper_default`].
///
/// # Examples
///
/// ```
/// use uvm_types::SimConfig;
///
/// let cfg = SimConfig::builder().interval_len(128).build()?;
/// assert_eq!(cfg.interval_len, 128);
/// # Ok::<(), uvm_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

macro_rules! builder_setters {
    ($($(#[$meta:meta])* $field:ident : $ty:ty),* $(,)?) => {
        $(
            $(#[$meta])*
            pub fn $field(&mut self, value: $ty) -> &mut Self {
                self.cfg.$field = value;
                self
            }
        )*
    };
}

impl SimConfigBuilder {
    builder_setters! {
        /// Sets the number of SMs.
        n_sms: u32,
        /// Sets the number of warps per SM.
        warps_per_sm: u32,
        /// Sets the core clock in GHz.
        clock_ghz: f64,
        /// Sets the per-SM L1 TLB configuration.
        l1_tlb: TlbConfig,
        /// Sets the shared L2 TLB configuration.
        l2_tlb: TlbConfig,
        /// Sets the fixed page walk latency in cycles.
        page_walk_cycles: u32,
        /// Sets the fixed post-translation access cost in cycles.
        mem_access_cycles: u32,
        /// Sets the page fault service time in microseconds.
        fault_service_us: f64,
        /// Sets the interconnect bandwidth in GB/s.
        pcie_gbps: f64,
        /// Sets the number of pages per page set (power of two, ≤ 64).
        page_set_size: u32,
        /// Sets the HPE interval length in page faults.
        interval_len: u32,
        /// Sets the HIR flush interval in page faults.
        transfer_interval: u32,
        /// Sets the HIR geometry.
        hir: HirGeometry,
        /// Sets the sequential prefetch depth (0 disables prefetching).
        prefetch_pages: u32,
        /// Sets the fault batch size (1 = the paper's one-per-service).
        fault_batch: u32,
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is invalid.
    pub fn build(&self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_parses_only_paper_rates() {
        for (text, want) in [
            ("75", Oversubscription::Rate75),
            ("75%", Oversubscription::Rate75),
            ("50", Oversubscription::Rate50),
            ("50%", Oversubscription::Rate50),
        ] {
            assert_eq!(Oversubscription::parse(text), Some(want), "{text}");
        }
        for text in ["", "%", "60", "75.0", "75.1", "0.75", " 75", "Rate75"] {
            assert_eq!(Oversubscription::parse(text), None, "{text:?}");
        }
    }

    #[test]
    fn paper_default_matches_table1() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.n_sms, 15);
        assert!((cfg.clock_ghz - 1.4).abs() < 1e-12);
        assert_eq!(cfg.l1_tlb.entries, 128);
        assert_eq!(cfg.l1_tlb.latency_cycles, 1);
        assert_eq!(cfg.l2_tlb.entries, 512);
        assert_eq!(cfg.l2_tlb.ways, 16);
        assert_eq!(cfg.l2_tlb.latency_cycles, 10);
        assert_eq!(cfg.page_walk_cycles, 8);
        assert!((cfg.fault_service_us - 20.0).abs() < 1e-12);
        assert!((cfg.pcie_gbps - 16.0).abs() < 1e-12);
        assert_eq!(cfg.page_set_size, 16);
        assert_eq!(cfg.interval_len, 64);
        assert_eq!(cfg.transfer_interval, 16);
        cfg.validate().expect("paper default must validate");
    }

    #[test]
    fn scaled_default_preserves_structure() {
        let cfg = SimConfig::scaled_default();
        cfg.validate().expect("scaled default must validate");
        let paper = SimConfig::paper_default();
        // Latencies and HPE parameters unchanged.
        assert_eq!(cfg.page_walk_cycles, paper.page_walk_cycles);
        assert_eq!(cfg.fault_service_us, paper.fault_service_us);
        assert_eq!(cfg.page_set_size, paper.page_set_size);
        assert_eq!(cfg.interval_len, paper.interval_len);
        // L2:L1 reach ratio preserved (512:128 = 64:16 = 4).
        assert_eq!(
            paper.l2_tlb.entries / paper.l1_tlb.entries,
            cfg.l2_tlb.entries / cfg.l1_tlb.entries
        );
    }

    #[test]
    fn fault_service_is_28k_cycles() {
        // 20 µs at 1.4 GHz.
        assert_eq!(SimConfig::paper_default().fault_service_cycles(), 28_000);
    }

    #[test]
    fn pcie_page_transfer_cost() {
        // 4 KB at 16 GB/s = 256 ns = 358.4 cycles at 1.4 GHz, rounded up.
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.pcie_transfer_cycles(4096), 359);
        assert_eq!(cfg.pcie_transfer_cycles(0), 0);
    }

    #[test]
    fn hir_storage_matches_paper_estimate() {
        // Section V-C: 80 bits = 10 bytes per entry, 1024 entries = 10 KB.
        let hir = HirGeometry::paper_default();
        assert_eq!(hir.storage_bytes(16), 10 * 1024);
        assert_eq!(hir.counter_max(), 3);
        assert_eq!(hir.sets(), 128);
    }

    #[test]
    fn builder_rejects_bad_page_set_size() {
        let err = SimConfig::builder().page_set_size(12).build().unwrap_err();
        assert!(err.to_string().contains("page_set_size"));
        let err = SimConfig::builder().page_set_size(128).build().unwrap_err();
        assert!(err.to_string().contains("page_set_size"));
    }

    #[test]
    fn builder_rejects_zero_fields() {
        assert!(SimConfig::builder().n_sms(0).build().is_err());
        assert!(SimConfig::builder().warps_per_sm(0).build().is_err());
        assert!(SimConfig::builder().interval_len(0).build().is_err());
        assert!(SimConfig::builder().transfer_interval(0).build().is_err());
        assert!(SimConfig::builder().clock_ghz(0.0).build().is_err());
        assert!(SimConfig::builder().fault_service_us(0.0).build().is_err());
        assert!(SimConfig::builder().pcie_gbps(-1.0).build().is_err());
    }

    #[test]
    fn tlb_validate_rejects_nondividing_ways() {
        let tlb = TlbConfig {
            entries: 512,
            ways: 7,
            latency_cycles: 1,
        };
        assert!(tlb.validate().is_err());
        assert!(SimConfig::builder().l2_tlb(tlb).build().is_err());
    }

    #[test]
    fn hir_validate_rejects_degenerate() {
        let mut hir = HirGeometry::paper_default();
        hir.ways = 3;
        assert!(hir.validate().is_err());
        hir = HirGeometry::paper_default();
        hir.counter_bits = 0;
        assert!(hir.validate().is_err());
        hir.counter_bits = 9;
        assert!(hir.validate().is_err());
    }

    #[test]
    fn prefetch_bounds() {
        assert_eq!(SimConfig::paper_default().prefetch_pages, 0);
        assert!(SimConfig::builder().prefetch_pages(8).build().is_ok());
        assert!(SimConfig::builder().prefetch_pages(65).build().is_err());
    }

    #[test]
    fn fault_batch_bounds() {
        assert_eq!(SimConfig::paper_default().fault_batch, 1);
        assert!(SimConfig::builder().fault_batch(256).build().is_ok());
        assert!(SimConfig::builder().fault_batch(0).build().is_err());
        assert!(SimConfig::builder().fault_batch(257).build().is_err());
    }

    #[test]
    fn oversubscription_capacity() {
        assert_eq!(Oversubscription::Rate75.capacity_pages(1024), 768);
        assert_eq!(Oversubscription::Rate50.capacity_pages(1024), 512);
        assert_eq!(Oversubscription::Custom(1.0).capacity_pages(5), 5);
        assert_eq!(Oversubscription::Rate75.label(), "75%");
        assert_eq!(Oversubscription::Rate50.label(), "50%");
        assert_eq!(Oversubscription::Custom(0.25).label(), "25%");
    }

    #[test]
    fn config_json_roundtrip() {
        let cfg = SimConfig::paper_default();
        let json = cfg.to_json().to_string();
        let back = SimConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn config_json_defaults_absent_fields() {
        // prefetch_pages / fault_batch were added after the first snapshot
        // format; older documents omit them.
        let mut j = SimConfig::paper_default().to_json();
        let Json::Object(entries) = &mut j else {
            panic!()
        };
        entries.retain(|(k, _)| k != "prefetch_pages" && k != "fault_batch");
        let back = SimConfig::from_json(&j).unwrap();
        assert_eq!(back.prefetch_pages, 0);
        assert_eq!(back.fault_batch, 1);
    }

    #[test]
    fn oversubscription_json_roundtrip() {
        for o in [
            Oversubscription::Rate75,
            Oversubscription::Rate50,
            Oversubscription::Custom(0.3),
        ] {
            let j = o.to_json();
            let back = Oversubscription::from_json(&j).unwrap();
            assert_eq!(back, o);
        }
        assert!(Oversubscription::from_json(&Json::Str("Rate99".into())).is_err());
    }
}
