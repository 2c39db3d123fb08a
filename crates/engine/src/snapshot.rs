//! Periodic run snapshots: one aggregated record per snapshot span.

use hetero_telemetry::{Histogram, SeriesPoint};

/// One snapshot span of a streaming run: the counters of every
/// telemetry window in the span summed, plus windowed latency/throughput
/// and the cumulative state at the span's close.
///
/// Snapshots are the engine's unit of observability *and* of memory
/// reclamation: once a span closes, its windows are drained from the
/// metrics sink and only this record survives (in a bounded ring).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Zero-based snapshot number.
    pub index: u64,
    /// First cycle covered by the span.
    pub start: u64,
    /// One past the last cycle covered (truncated at the run's end for
    /// the final, partial snapshot).
    pub end: u64,
    /// Jobs that arrived in the span.
    pub arrivals: u64,
    /// Jobs that completed in the span.
    pub completions: u64,
    /// Stall decisions taken in the span.
    pub stall_offers: u64,
    /// Preemption evictions committed in the span.
    pub evictions: u64,
    /// Faults struck in the span.
    pub faults: u64,
    /// Retries scheduled in the span.
    pub retries: u64,
    /// Offered arrivals shed by the admission governor in the span.
    pub sheds: u64,
    /// Ready-queue depth at the span's end boundary.
    pub ready_depth: u64,
    /// Net energy charged in the span (dynamic + static + idle), in nJ.
    pub energy_nj: f64,
    /// Mean core utilisation over the span.
    pub mean_utilisation: f64,
    /// p50 of the latencies of jobs completed *in this span*, in cycles.
    pub p50_latency_cycles: u64,
    /// p99 of the latencies of jobs completed in this span, in cycles.
    pub p99_latency_cycles: u64,
    /// Jobs completed over the whole run so far.
    pub cumulative_completions: u64,
    /// Run-wide p99 latency at the span's close, in cycles.
    pub cumulative_p99_latency_cycles: u64,
    /// Run-wide energy per completed job at the span's close, in nJ.
    pub cumulative_energy_per_job_nj: f64,
}

/// Run-wide state at a span's close, carried into [`Snapshot::from_points`]
/// so each snapshot can report cumulative figures alongside its own span.
pub(crate) struct Cumulative {
    pub(crate) completions: u64,
    pub(crate) p99_latency_cycles: u64,
    pub(crate) energy_per_job_nj: f64,
}

impl Snapshot {
    /// Fold a span's drained windows and its windowed latency histogram
    /// (`None` when no job completed in the span) into one record.
    /// `cumulative` carries the caller's run-wide state at the close.
    pub(crate) fn from_points(
        index: u64,
        start: u64,
        end: u64,
        points: &[SeriesPoint],
        latency: Option<&Histogram>,
        cumulative: Cumulative,
    ) -> Self {
        debug_assert!(end >= start, "snapshot span is reversed: [{start}, {end})");
        let mut snapshot = Snapshot {
            index,
            start,
            end,
            arrivals: 0,
            completions: 0,
            stall_offers: 0,
            evictions: 0,
            faults: 0,
            retries: 0,
            sheds: 0,
            ready_depth: 0,
            energy_nj: 0.0,
            mean_utilisation: 0.0,
            p50_latency_cycles: latency.map_or(0, Histogram::p50),
            p99_latency_cycles: latency.map_or(0, Histogram::p99),
            cumulative_completions: cumulative.completions,
            cumulative_p99_latency_cycles: cumulative.p99_latency_cycles,
            cumulative_energy_per_job_nj: cumulative.energy_per_job_nj,
        };
        for point in points {
            snapshot.arrivals += point.arrivals;
            snapshot.completions += point.completions;
            snapshot.stall_offers += point.stall_offers;
            snapshot.evictions += point.evictions;
            snapshot.faults += point.faults;
            snapshot.retries += point.retries;
            snapshot.sheds += point.sheds;
            snapshot.energy_nj += point.energy_nj();
            snapshot.mean_utilisation += point.mean_utilisation();
            snapshot.ready_depth = point.ready_depth;
        }
        if !points.is_empty() {
            snapshot.mean_utilisation /= points.len() as f64;
        }
        snapshot
    }

    /// Span length in cycles.
    pub fn span_cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Completion throughput over the span, in jobs per mega-cycle.
    pub fn throughput_jobs_per_mcycle(&self) -> f64 {
        let span = self.span_cycles();
        if span == 0 {
            0.0
        } else {
            self.completions as f64 / span as f64 * 1e6
        }
    }

    /// Energy per job completed in the span, in nJ (0 when idle).
    pub fn energy_per_job_nj(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.energy_nj / self.completions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cumulative() -> Cumulative {
        Cumulative {
            completions: 0,
            p99_latency_cycles: 0,
            energy_per_job_nj: 0.0,
        }
    }

    #[test]
    fn spans_are_constructed_in_order_and_measured_exactly() {
        let latency = Histogram::new();
        let snapshot = Snapshot::from_points(3, 30_000, 40_000, &[], Some(&latency), cumulative());
        assert_eq!(snapshot.span_cycles(), 10_000);
        // A zero-length final span (run ends exactly on a boundary) is
        // legal and must not underflow.
        let empty = Snapshot::from_points(4, 40_000, 40_000, &[], None, cumulative());
        assert_eq!(empty.span_cycles(), 0);
        assert_eq!(empty.throughput_jobs_per_mcycle(), 0.0);
        // No histogram reads exactly as an empty one.
        assert_eq!(
            (empty.p50_latency_cycles, empty.p99_latency_cycles),
            (snapshot.p50_latency_cycles, snapshot.p99_latency_cycles)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "snapshot span is reversed")]
    fn reversed_spans_are_rejected_in_debug_builds() {
        // `span_cycles` saturates, which would silently turn a reversed
        // span into "zero cycles"; the constructor refuses it instead.
        let _ = Snapshot::from_points(0, 40_000, 30_000, &[], None, cumulative());
    }
}
