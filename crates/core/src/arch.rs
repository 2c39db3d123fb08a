//! The Figure 1 system architecture: heterogeneous cores with fixed cache
//! sizes and configurable line size / associativity.

use cache_sim::{design_space, CacheConfig, CacheSizeKb};
use multicore_sim::{CoreId, CoreSet};

/// The multicore platform description.
///
/// Each core's L1 **size is fixed** (that is the heterogeneity the ANN
/// predicts over); line size and associativity remain configurable within
/// the Table 1 subset for that size. One core is the primary profiling core
/// and one may serve as secondary when the primary is busy (paper: Core 4
/// primary, Core 3 secondary, both 8 KB so either can run the base
/// configuration `8KB_4W_64B`).
///
/// ```
/// use hetero_core::Architecture;
/// use cache_sim::CacheSizeKb;
/// use multicore_sim::CoreId;
///
/// let arch = Architecture::paper_quad();
/// assert_eq!(arch.num_cores(), 4);
/// assert_eq!(arch.core_size(CoreId(0)), CacheSizeKb::K2);
/// assert_eq!(arch.primary_profiling_core(), CoreId(3));
/// let eight: Vec<CoreId> = arch.core_set(CacheSizeKb::K8).iter().collect();
/// assert_eq!(eight, vec![CoreId(2), CoreId(3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    core_sizes: Vec<CacheSizeKb>,
    primary_profiling: CoreId,
    secondary_profiling: Option<CoreId>,
    /// Precomputed membership masks indexed by [`CacheSizeKb::index`]:
    /// `size_sets[i]` holds the cores whose fixed size is `ALL[i]`. Built
    /// once at construction so schedulers can intersect them with the idle
    /// mask (`CoreIndex::first_idle_in`) in O(words) per decision instead
    /// of scanning every core.
    size_sets: [CoreSet; CacheSizeKb::ALL.len()],
}

fn build_size_sets(core_sizes: &[CacheSizeKb]) -> [CoreSet; CacheSizeKb::ALL.len()] {
    CacheSizeKb::ALL.map(|size| {
        CoreSet::from_cores(
            core_sizes.len(),
            core_sizes
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == size)
                .map(|(i, _)| CoreId(i)),
        )
    })
}

impl Architecture {
    /// The paper's quad-core system: Core 1 → 2 KB, Core 2 → 4 KB,
    /// Core 3 → 8 KB (secondary profiling), Core 4 → 8 KB (primary
    /// profiling).
    pub fn paper_quad() -> Self {
        let core_sizes = vec![
            CacheSizeKb::K2,
            CacheSizeKb::K4,
            CacheSizeKb::K8,
            CacheSizeKb::K8,
        ];
        let size_sets = build_size_sets(&core_sizes);
        Architecture {
            core_sizes,
            primary_profiling: CoreId(3),
            secondary_profiling: Some(CoreId(2)),
            size_sets,
        }
    }

    /// A custom architecture ("this general structure could be scaled up or
    /// down for different system requirements").
    ///
    /// # Panics
    ///
    /// Panics if `core_sizes` is empty, if a profiling core index is out of
    /// range, or if a profiling core's cache is smaller than the base
    /// configuration (profiling executes `8KB_4W_64B`, so profiling cores
    /// must be 8 KB).
    pub fn new(
        core_sizes: Vec<CacheSizeKb>,
        primary_profiling: CoreId,
        secondary_profiling: Option<CoreId>,
    ) -> Self {
        assert!(!core_sizes.is_empty(), "need at least one core");
        let check = |core: CoreId| {
            assert!(
                core.0 < core_sizes.len(),
                "profiling core {core} out of range"
            );
            assert_eq!(
                core_sizes[core.0],
                cache_sim::BASE_CONFIG.size(),
                "profiling core {core} must offer the base configuration's size"
            );
        };
        check(primary_profiling);
        if let Some(secondary) = secondary_profiling {
            check(secondary);
        }
        let size_sets = build_size_sets(&core_sizes);
        Architecture {
            core_sizes,
            primary_profiling,
            secondary_profiling,
            size_sets,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.core_sizes.len()
    }

    /// All core ids in order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_sizes.len()).map(CoreId)
    }

    /// The fixed cache size of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_size(&self, core: CoreId) -> CacheSizeKb {
        self.core_sizes[core.0]
    }

    /// The precomputed membership mask of cores whose fixed cache size
    /// equals `size` (empty when the architecture offers none). Intersect
    /// it with the simulator's idle mask via
    /// [`CoreIndex::first_idle_in`](multicore_sim::CoreIndex::first_idle_in)
    /// for an O(words) best-size placement probe, or walk it with
    /// [`CoreSet::iter`] for the cores in id order.
    pub fn core_set(&self, size: CacheSizeKb) -> &CoreSet {
        &self.size_sets[size.index()]
    }

    /// The size actually offered by this architecture that is closest to
    /// `size` (ties resolve to the larger size, which is the
    /// fewest-misses-safe choice). Schedulers clamp ANN predictions
    /// through this so scaled-down architectures without some size are
    /// still servable.
    pub fn nearest_available_size(&self, size: CacheSizeKb) -> CacheSizeKb {
        if !self.core_set(size).is_empty() {
            return size;
        }
        self.core_sizes
            .iter()
            .copied()
            .min_by_key(|candidate| {
                let distance =
                    (i64::from(candidate.kilobytes()) - i64::from(size.kilobytes())).abs();
                // Smaller distance first; larger size wins ties.
                (distance, std::cmp::Reverse(candidate.kilobytes()))
            })
            .expect("architectures have at least one core")
    }

    /// The primary profiling core (paper: Core 4).
    pub fn primary_profiling_core(&self) -> CoreId {
        self.primary_profiling
    }

    /// The secondary profiling core, if configured (paper: Core 3).
    pub fn secondary_profiling_core(&self) -> Option<CoreId> {
        self.secondary_profiling
    }

    /// The Table 1 configurations `core` can offer (fixed size, all valid
    /// line/associativity combinations).
    pub fn configs_for_core(&self, core: CoreId) -> Vec<CacheConfig> {
        let size = self.core_size(core);
        design_space().filter(|c| c.size() == size).collect()
    }

    /// A sensible power-on configuration for `core`: smallest
    /// associativity and line at the core's size (the Figure 5 exploration
    /// origin).
    pub fn default_config(&self, core: CoreId) -> CacheConfig {
        self.configs_for_core(core)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quad_matches_figure_1() {
        let arch = Architecture::paper_quad();
        assert_eq!(arch.num_cores(), 4);
        let sizes: Vec<u32> = arch
            .cores()
            .map(|c| arch.core_size(c).kilobytes())
            .collect();
        assert_eq!(sizes, vec![2, 4, 8, 8]);
        assert_eq!(arch.primary_profiling_core(), CoreId(3));
        assert_eq!(arch.secondary_profiling_core(), Some(CoreId(2)));
    }

    #[test]
    fn config_subsets_match_table_1_counts() {
        let arch = Architecture::paper_quad();
        assert_eq!(arch.configs_for_core(CoreId(0)).len(), 3); // 2KB: 1W x 3 lines
        assert_eq!(arch.configs_for_core(CoreId(1)).len(), 6); // 4KB: 2 assoc x 3
        assert_eq!(arch.configs_for_core(CoreId(2)).len(), 9); // 8KB: 3 assoc x 3
        assert_eq!(arch.configs_for_core(CoreId(3)).len(), 9);
    }

    #[test]
    fn configs_for_core_all_have_the_core_size() {
        let arch = Architecture::paper_quad();
        for core in arch.cores() {
            for config in arch.configs_for_core(core) {
                assert_eq!(config.size(), arch.core_size(core));
            }
        }
    }

    #[test]
    fn default_config_is_smallest_assoc_and_line() {
        let arch = Architecture::paper_quad();
        assert_eq!(arch.default_config(CoreId(0)).to_string(), "2KB_1W_16B");
        assert_eq!(arch.default_config(CoreId(3)).to_string(), "8KB_1W_16B");
    }

    fn cores_of(arch: &Architecture, size: CacheSizeKb) -> Vec<CoreId> {
        arch.core_set(size).iter().collect()
    }

    #[test]
    fn core_set_finds_both_8kb_cores() {
        let arch = Architecture::paper_quad();
        assert_eq!(cores_of(&arch, CacheSizeKb::K2), vec![CoreId(0)]);
        assert_eq!(cores_of(&arch, CacheSizeKb::K8), vec![CoreId(2), CoreId(3)]);
    }

    #[test]
    fn core_sets_mirror_core_sizes() {
        let arch = Architecture::new(
            vec![
                CacheSizeKb::K2,
                CacheSizeKb::K2,
                CacheSizeKb::K8,
                CacheSizeKb::K8,
            ],
            CoreId(3),
            Some(CoreId(2)),
        );
        for size in CacheSizeKb::ALL {
            let by_scan: Vec<CoreId> = arch
                .cores()
                .filter(|&c| arch.core_size(c) == size)
                .collect();
            assert_eq!(cores_of(&arch, size), by_scan);
        }
        assert!(arch.core_set(CacheSizeKb::K4).is_empty());
        assert!(arch.core_set(CacheSizeKb::K2).contains(CoreId(1)));
        assert!(!arch.core_set(CacheSizeKb::K2).contains(CoreId(2)));
    }

    #[test]
    #[should_panic(expected = "base configuration's size")]
    fn small_profiling_core_rejected() {
        let _ = Architecture::new(vec![CacheSizeKb::K2, CacheSizeKb::K4], CoreId(0), None);
    }

    #[test]
    fn nearest_available_size_clamps_to_offered_sizes() {
        let two_core = Architecture::new(vec![CacheSizeKb::K2, CacheSizeKb::K8], CoreId(1), None);
        assert_eq!(
            two_core.nearest_available_size(CacheSizeKb::K2),
            CacheSizeKb::K2
        );
        assert_eq!(
            two_core.nearest_available_size(CacheSizeKb::K8),
            CacheSizeKb::K8
        );
        // 4 KB is equidistant from 2 and... |4-2|=2, |4-8|=4: clamps to 2KB.
        assert_eq!(
            two_core.nearest_available_size(CacheSizeKb::K4),
            CacheSizeKb::K2
        );
        let mid = Architecture::new(vec![CacheSizeKb::K4, CacheSizeKb::K8], CoreId(1), None);
        assert_eq!(mid.nearest_available_size(CacheSizeKb::K2), CacheSizeKb::K4);
        // Exact match always wins.
        let quad = Architecture::paper_quad();
        for size in CacheSizeKb::ALL {
            assert_eq!(quad.nearest_available_size(size), size);
        }
    }

    #[test]
    fn custom_architecture_scales_up() {
        let arch = Architecture::new(
            vec![
                CacheSizeKb::K2,
                CacheSizeKb::K2,
                CacheSizeKb::K4,
                CacheSizeKb::K4,
                CacheSizeKb::K8,
                CacheSizeKb::K8,
            ],
            CoreId(5),
            Some(CoreId(4)),
        );
        assert_eq!(arch.num_cores(), 6);
        assert_eq!(arch.core_set(CacheSizeKb::K2).len(), 2);
    }
}
