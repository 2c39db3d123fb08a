//! Chrome trace-event (Perfetto) export of assembled causal spans.
//!
//! Converts the spans and instant markers folded by
//! [`hetero_telemetry::SpanAssembler`] into the JSON Array Format that
//! `ui.perfetto.dev` (and `chrome://tracing`) load directly: complete
//! `ph:"X"` duration events for job-lifecycle and core-occupancy spans,
//! `ph:"i"` instants for stalls / faults / sheds / alerts, and `ph:"M"`
//! metadata events naming the tracks. One simulated cycle maps to one
//! microsecond of trace time, so cycle arithmetic survives the viewer's
//! zoom readouts unchanged.
//!
//! Track layout:
//!
//! | pid | process        | tid               |
//! |-----|----------------|-------------------|
//! | 0   | `cores`        | core id           |
//! | 1   | `jobs`         | job sequence      |
//! | 2   | `scheduler`    | 0 (global marks)  |
//!
//! The document is built with the crate's hand-rolled [`Json`], so the
//! export round-trips through [`Json::parse`] with no external tooling —
//! [`validate_perfetto`] is that round-trip's schema check, shared by the
//! unit tests and the `engine --perfetto` artifact gate.

use crate::json::Json;
use hetero_telemetry::{CoreSpanKind, Mark, SpanAssembler};
use std::collections::HashMap;

/// Process id of the per-core occupancy tracks.
pub const PID_CORES: u64 = 0;
/// Process id of the per-job lifecycle tracks.
pub const PID_JOBS: u64 = 1;
/// Process id of the global scheduler track (alerts, predictor state).
pub const PID_SCHED: u64 = 2;

fn meta_event(pid: u64, tid: Option<u64>, name: &'static str, value: &str) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("ph", Json::str("M")),
        ("pid", Json::UInt(pid)),
        ("name", Json::str(name)),
    ];
    if let Some(tid) = tid {
        pairs.insert(2, ("tid", Json::UInt(tid)));
    }
    pairs.push(("args", Json::object([("name", Json::str(value))])));
    Json::object(pairs)
}

fn duration_event(
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
    name: &str,
    cat: &'static str,
    args: Vec<(&'static str, Json)>,
) -> Json {
    Json::object([
        ("ph", Json::str("X")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("ts", Json::UInt(ts)),
        ("dur", Json::UInt(dur)),
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("args", Json::object(args)),
    ])
}

fn instant_event(mark: &Mark) -> Json {
    // A mark lands on the most specific track it names: the core's, the
    // job's, else the global scheduler track.
    let (pid, tid, scope) = match (mark.core, mark.seq) {
        (Some(core), _) => (PID_CORES, core.0 as u64, "t"),
        (None, Some(seq)) => (PID_JOBS, seq, "t"),
        (None, None) => (PID_SCHED, 0, "g"),
    };
    let mut args: Vec<(&'static str, Json)> = Vec::new();
    if let Some(seq) = mark.seq {
        args.push(("seq", Json::UInt(seq)));
    }
    if let Some(detail) = mark.detail.as_deref() {
        args.push(("detail", Json::str(detail)));
    }
    Json::object([
        ("ph", Json::str("i")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("ts", Json::UInt(mark.at)),
        ("s", Json::str(scope)),
        ("name", Json::str(mark.label)),
        ("args", Json::object(args)),
    ])
}

/// Build the complete Chrome trace-event document from a finished
/// assembler. Call [`SpanAssembler::finish`] first so stragglers are
/// closed at the horizon; events are emitted metadata-first, then in
/// non-decreasing `ts` order.
pub fn perfetto_document(assembler: &SpanAssembler, system: &str, seed: u64) -> Json {
    let mut named_jobs: HashMap<u64, ()> = HashMap::new();
    let mut metadata: Vec<Json> = vec![
        meta_event(PID_CORES, None, "process_name", "cores"),
        meta_event(PID_JOBS, None, "process_name", "jobs"),
        meta_event(PID_SCHED, None, "process_name", "scheduler"),
        meta_event(PID_SCHED, Some(0), "thread_name", "alerts"),
    ];
    let mut timed: Vec<(u64, Json)> = Vec::new();

    let mut named_cores: HashMap<u64, ()> = HashMap::new();
    for span in assembler.core_spans() {
        let tid = span.core.0 as u64;
        if named_cores.insert(tid, ()).is_none() {
            metadata.push(meta_event(
                PID_CORES,
                Some(tid),
                "thread_name",
                &format!("core {tid}"),
            ));
        }
        let (name, cat, args) = match span.kind {
            CoreSpanKind::Busy { seq, benchmark } => (
                format!("job {seq}"),
                "busy",
                vec![
                    ("seq", Json::UInt(seq)),
                    ("benchmark", Json::UInt(benchmark.0 as u64)),
                ],
            ),
            CoreSpanKind::Idle => ("idle".to_string(), "idle", Vec::new()),
            CoreSpanKind::Offline => ("offline".to_string(), "offline", Vec::new()),
        };
        timed.push((
            span.start,
            duration_event(
                PID_CORES,
                tid,
                span.start,
                span.end - span.start,
                &name,
                cat,
                args,
            ),
        ));
    }

    for span in assembler.job_spans() {
        if named_jobs.insert(span.seq, ()).is_none() {
            metadata.push(meta_event(
                PID_JOBS,
                Some(span.seq),
                "thread_name",
                &format!("job {}", span.seq),
            ));
        }
        let mut args = vec![
            ("benchmark", Json::UInt(span.benchmark.0 as u64)),
            ("close", Json::str(span.close.name())),
        ];
        if let Some(core) = span.core {
            args.push(("core", Json::UInt(core.0 as u64)));
        }
        timed.push((
            span.start,
            duration_event(
                PID_JOBS,
                span.seq,
                span.start,
                span.end - span.start,
                span.phase.name(),
                "job",
                args,
            ),
        ));
    }

    for mark in assembler.marks() {
        timed.push((mark.at, instant_event(mark)));
    }

    timed.sort_by_key(|(ts, _)| *ts);
    let mut events = metadata;
    events.extend(timed.into_iter().map(|(_, event)| event));

    Json::object([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Array(events)),
        (
            "metadata",
            Json::object([
                ("exporter", Json::str("hetero-bench perfetto")),
                ("system", Json::str(system)),
                ("seed", Json::UInt(seed)),
                ("clock", Json::str("1 cycle = 1 us")),
                ("arrivals", Json::UInt(assembler.arrivals())),
                ("completed", Json::UInt(assembler.completed())),
                ("abandoned", Json::UInt(assembler.abandoned())),
                ("shed", Json::UInt(assembler.shed())),
                ("horizon_cycles", Json::UInt(assembler.last_at())),
            ]),
        ),
    ])
}

/// Shape summary returned by a successful [`validate_perfetto`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfettoSummary {
    /// `ph:"M"` metadata events.
    pub metadata: usize,
    /// `ph:"X"` complete duration events.
    pub durations: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// Largest `ts + dur` seen (trace horizon, µs).
    pub max_ts: u64,
}

fn field_u64(event: &Json, key: &str, index: usize) -> Result<u64, String> {
    event
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("event {index}: missing integer `{key}`"))
}

fn field_str<'j>(event: &'j Json, key: &str, index: usize) -> Result<&'j str, String> {
    event
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("event {index}: missing string `{key}`"))
}

/// Schema check for a parsed Chrome trace-event document: track names
/// precede timed events, every event carries the fields its phase
/// requires, timed events are in non-decreasing `ts` order, and the
/// duration events on any one track never overlap. This is the
/// loadability contract `ui.perfetto.dev` relies on, checked offline.
pub fn validate_perfetto(doc: &Json) -> Result<PerfettoSummary, String> {
    field_str(doc, "displayTimeUnit", 0).map_err(|_| "missing displayTimeUnit".to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut summary = PerfettoSummary::default();
    let mut last_ts = 0u64;
    let mut seen_timed = false;
    // Per-(pid, tid) end of the latest duration event, for overlap checks.
    let mut track_end: HashMap<(u64, u64), u64> = HashMap::new();
    for (index, event) in events.iter().enumerate() {
        let ph = field_str(event, "ph", index)?;
        let pid = field_u64(event, "pid", index)?;
        match ph {
            "M" => {
                if seen_timed {
                    return Err(format!("event {index}: metadata after timed events"));
                }
                let name = field_str(event, "name", index)?;
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {index}: unknown metadata `{name}`"));
                }
                event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {index}: metadata without args.name"))?;
                summary.metadata += 1;
            }
            "X" => {
                seen_timed = true;
                let tid = field_u64(event, "tid", index)?;
                let ts = field_u64(event, "ts", index)?;
                let dur = field_u64(event, "dur", index)?;
                field_str(event, "name", index)?;
                field_str(event, "cat", index)?;
                if ts < last_ts {
                    return Err(format!("event {index}: ts {ts} < previous {last_ts}"));
                }
                last_ts = ts;
                let end = track_end.entry((pid, tid)).or_insert(0);
                if ts < *end {
                    return Err(format!(
                        "event {index}: span on track {pid}/{tid} starts at {ts} before previous span ends at {end}"
                    ));
                }
                *end = ts + dur;
                summary.durations += 1;
                summary.max_ts = summary.max_ts.max(ts + dur);
            }
            "i" => {
                seen_timed = true;
                let ts = field_u64(event, "ts", index)?;
                field_u64(event, "tid", index)?;
                field_str(event, "name", index)?;
                let scope = field_str(event, "s", index)?;
                if !matches!(scope, "g" | "p" | "t") {
                    return Err(format!("event {index}: bad instant scope `{scope}`"));
                }
                if ts < last_ts {
                    return Err(format!("event {index}: ts {ts} < previous {last_ts}"));
                }
                last_ts = ts;
                summary.instants += 1;
                summary.max_ts = summary.max_ts.max(ts);
            }
            other => return Err(format!("event {index}: unsupported phase `{other}`")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::{CoreId, PlacementKind, TraceEvent, TraceSink};
    use workloads::BenchmarkId;

    fn assembled() -> SpanAssembler {
        let mut assembler = SpanAssembler::new();
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(1),
                at: 10,
                priority: 0,
            },
            TraceEvent::Shed {
                offered: 1,
                benchmark: BenchmarkId(2),
                at: 15,
                priority: 1,
                reason: multicore_sim::ShedReason::QueueFull,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(1),
                core: CoreId(0),
                at: 20,
                cycles: 100,
                dynamic_nj: 1.0,
                static_nj: 0.5,
                kind: PlacementKind::Pass,
            },
            TraceEvent::IdleSpan {
                core: CoreId(1),
                from: 20,
                to: 120,
                idle_power_nj_per_cycle: 0.2,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(1),
                core: CoreId(0),
                at: 120,
                arrival: 10,
                priority: 0,
            },
        ];
        for event in events {
            assembler.record(event);
        }
        assembler.finish(120);
        assembler
    }

    #[test]
    fn document_round_trips_and_validates() {
        let assembler = assembled();
        let doc = perfetto_document(&assembler, "proposed", 7);
        let parsed = Json::parse(&doc.to_pretty()).expect("perfetto doc parses");
        let summary = validate_perfetto(&parsed).expect("schema valid");
        // 2 job spans + 1 shed span + 1 busy core span + 1 idle span.
        assert_eq!(summary.durations, 5);
        // shed mark only.
        assert_eq!(summary.instants, 1);
        assert!(summary.metadata >= 4);
        assert_eq!(summary.max_ts, 120);
        let meta = parsed.get("metadata").expect("metadata");
        assert_eq!(meta.get("completed").and_then(Json::as_u64), Some(1));
        assert_eq!(meta.get("shed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn span_conservation_matches_event_arithmetic() {
        // running spans == placements; queued spans == arrivals (no
        // evictions or retries here); shed offers == terminal shed spans.
        let assembler = assembled();
        let doc = perfetto_document(&assembler, "proposed", 7);
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        let job_phase = |phase: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && e.get("pid").and_then(Json::as_u64) == Some(PID_JOBS)
                        && e.get("name").and_then(Json::as_str) == Some(phase)
                })
                .count()
        };
        assert_eq!(job_phase("running"), 1);
        assert_eq!(job_phase("queued"), 1);
        assert_eq!(job_phase("shed"), 1);
    }

    #[test]
    fn overlapping_track_spans_are_rejected() {
        let doc = Json::object([
            ("displayTimeUnit", Json::str("ms")),
            (
                "traceEvents",
                Json::Array(vec![
                    duration_event(0, 0, 0, 100, "a", "busy", vec![]),
                    duration_event(0, 0, 50, 100, "b", "busy", vec![]),
                ]),
            ),
        ]);
        let err = validate_perfetto(&doc).unwrap_err();
        assert!(err.contains("before previous span ends"), "{err}");
    }

    #[test]
    fn out_of_order_timestamps_are_rejected() {
        let doc = Json::object([
            ("displayTimeUnit", Json::str("ms")),
            (
                "traceEvents",
                Json::Array(vec![
                    duration_event(0, 0, 100, 10, "a", "busy", vec![]),
                    duration_event(0, 1, 50, 10, "b", "busy", vec![]),
                ]),
            ),
        ]);
        let err = validate_perfetto(&doc).unwrap_err();
        assert!(err.contains("< previous"), "{err}");
    }

    #[test]
    fn metadata_after_timed_events_is_rejected() {
        let doc = Json::object([
            ("displayTimeUnit", Json::str("ms")),
            (
                "traceEvents",
                Json::Array(vec![
                    duration_event(0, 0, 0, 10, "a", "busy", vec![]),
                    meta_event(0, None, "process_name", "cores"),
                ]),
            ),
        ]);
        assert!(validate_perfetto(&doc).is_err());
    }
}
