//! `ProfileEntry` against a string-keyed model of the profiling entry.
//!
//! The model below is the map-based layout the index-addressed entry
//! replaced: explored configurations keyed by their `8KB_4W_64B` names in a
//! `BTreeMap`, tuning cursors keyed by size in kilobytes. Random
//! `record_execution` sequences, biased towards the configuration each
//! tuner asks for so that tuning runs to completion, must leave both in
//! agreement on every query the schedulers make.

use cache_sim::{design_space, CacheConfig, CacheSizeKb, CacheStats, DESIGN_SPACE_LEN};
use energy_model::{EnergyBreakdown, ExecutionCost};
use hetero_core::{ProfileEntry, TuningExplorer, TuningStatus};
use proptest::prelude::*;
use std::collections::BTreeMap;
use workloads::{ExecutionStatistics, InstructionMix};

#[derive(Default)]
struct ModelEntry {
    explored: BTreeMap<String, (CacheConfig, ExecutionCost)>,
    tuners: BTreeMap<u32, TuningExplorer>,
}

impl ModelEntry {
    fn record_execution(&mut self, config: CacheConfig, cost: ExecutionCost) {
        self.explored.insert(config.to_string(), (config, cost));
        let tuner = self
            .tuners
            .entry(config.size().kilobytes())
            .or_insert_with(|| TuningExplorer::new(config.size()));
        if let TuningStatus::Explore(wanted) = tuner.status() {
            if wanted == config {
                tuner.record(config, cost.total_nj());
            }
        }
    }

    fn known_cost(&self, config: CacheConfig) -> Option<ExecutionCost> {
        self.explored
            .get(&config.to_string())
            .map(|(_, cost)| *cost)
    }

    fn tuner(&self, size: CacheSizeKb) -> Option<&TuningExplorer> {
        self.tuners.get(&size.kilobytes())
    }

    fn is_tuned(&self, size: CacheSizeKb) -> bool {
        self.tuner(size).is_some_and(TuningExplorer::is_done)
    }

    fn best_known_for_size(&self, size: CacheSizeKb) -> Option<(CacheConfig, ExecutionCost)> {
        let tuner = self.tuner(size)?;
        if !tuner.is_done() {
            return None;
        }
        let (config, _) = tuner.best()?;
        Some((config, self.known_cost(config)?))
    }
}

fn cost(energy: f64, cycles: u64) -> ExecutionCost {
    ExecutionCost {
        cycles,
        energy: EnergyBreakdown {
            dynamic_nj: energy,
            static_nj: energy * 0.25,
            idle_nj: 0.0,
        },
    }
}

fn fresh_entry() -> ProfileEntry {
    let statistics = ExecutionStatistics::new(InstructionMix::new(), CacheStats::new(), 10, 0);
    ProfileEntry::new(statistics, cost(100.0, 10), CacheSizeKb::K8)
}

/// One step: `(follow_tuner, row, size, energy level, cycles)`. With
/// `follow_tuner < 3` the step executes what the `size` tuner asks for
/// (while it still explores); otherwise it executes design-space `row`.
/// Energies come from five levels so that equal energies (which must not
/// count as a tuning improvement) occur often.
fn steps() -> impl Strategy<Value = Vec<(u8, usize, usize, u8, u64)>> {
    prop::collection::vec(
        (
            0u8..4,
            0usize..DESIGN_SPACE_LEN,
            0usize..3,
            0u8..5,
            1u64..1000,
        ),
        0..40,
    )
}

fn agree(entry: &ProfileEntry, model: &ModelEntry) {
    let actual: Vec<(CacheConfig, ExecutionCost)> = entry.explored().collect();
    let expected: Vec<(CacheConfig, ExecutionCost)> = model.explored.values().copied().collect();
    prop_assert_eq!(actual, expected);
    prop_assert_eq!(entry.explored_count(), model.explored.len());
    for config in design_space() {
        prop_assert_eq!(entry.known_cost(config), model.known_cost(config));
    }
    for size in CacheSizeKb::ALL {
        prop_assert_eq!(entry.is_tuned(size), model.is_tuned(size));
        prop_assert_eq!(
            entry.best_known_for_size(size),
            model.best_known_for_size(size)
        );
        prop_assert_eq!(entry.tuner(size), model.tuner(size));
    }
}

proptest! {
    #[test]
    fn indexed_entry_matches_the_string_keyed_model(steps in steps()) {
        let configs: Vec<CacheConfig> = design_space().collect();
        let mut entry = fresh_entry();
        let mut model = ModelEntry::default();
        agree(&entry, &model);
        for (follow_tuner, row, size, level, cycles) in steps {
            let size = CacheSizeKb::ALL[size];
            let wanted = match model.tuner(size).map(TuningExplorer::status) {
                None => Some(TuningExplorer::new(size).status()),
                status => status,
            };
            let config = match wanted {
                Some(TuningStatus::Explore(wanted)) if follow_tuner < 3 => wanted,
                _ => configs[row],
            };
            let executed = cost(f64::from(level) * 10.0, cycles);
            entry.record_execution(config, executed);
            model.record_execution(config, executed);
            agree(&entry, &model);
        }
    }
}
