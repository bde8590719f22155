//! Bounded ring-buffer event trace.
//!
//! The pipeline emits a [`TraceEvent`] at each interesting mechanism point
//! (prediction made / overridden / undone, early resolution, rename-time
//! cancel / unguard, flushes, retirement). An [`EventRing`] keeps the
//! **last** `capacity` events — the tail of a run is where mispredictions
//! cluster when something goes wrong — and counts what it dropped, so an
//! exported trace is honest about truncation.

use crate::json::Json;
use std::collections::VecDeque;
use std::fmt;

/// What happened at a trace point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A branch received its final front-end prediction.
    PredictionMade {
        /// Predicted direction.
        taken: bool,
        /// True when the prediction came from a predicate value (PPRF)
        /// rather than the pattern-history predictor.
        from_predicate: bool,
    },
    /// The second-level (override) predictor re-steered the front end
    /// away from the first-level prediction.
    PredictionOverridden {
        /// First-level direction that was discarded.
        from: bool,
        /// Overriding direction the fetch stream followed.
        to: bool,
    },
    /// A predictor update was rolled back on a squashed wrong path
    /// (§3.3 history repair).
    PredictionUndone,
    /// The branch resolved at rename from an already-computed predicate
    /// value — no prediction needed, no misprediction possible.
    EarlyResolve {
        /// Resolved direction.
        taken: bool,
    },
    /// Selective predication cancelled an if-converted instruction at
    /// rename because its guarding predicate was predicted false.
    CancelAtRename {
        /// True when the predicate prediction later proved wrong.
        wrong: bool,
    },
    /// Selective predication dropped the guard of an if-converted
    /// instruction at rename because its predicate was predicted true.
    UnguardAtRename {
        /// True when the predicate prediction later proved wrong.
        wrong: bool,
    },
    /// Pipeline flush from a wrong predicate speculation on an
    /// if-converted instruction.
    PredicationFlush,
    /// Pipeline flush from a branch misprediction.
    BranchFlush,
    /// A sampled run crossed from its warmup phase into the measured
    /// window: statistics were rebased here, so events before this
    /// marker trained predictors and caches but are excluded from the
    /// reported counters. The marker is positional — `cycle` is the
    /// rebase point (the last warmup commit); `seq` and `pc` are zero.
    MeasurementBegin,
    /// An instruction retired; timestamps of each stage it passed.
    Retire {
        /// Fetch cycle.
        fetch: u64,
        /// Rename cycle.
        rename: u64,
        /// Issue cycle.
        issue: u64,
        /// Execution-complete cycle.
        exec: u64,
        /// Commit cycle.
        commit: u64,
    },
}

impl EventKind {
    /// Stable snake_case tag used in JSON export and display.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::PredictionMade { .. } => "prediction_made",
            EventKind::PredictionOverridden { .. } => "prediction_overridden",
            EventKind::PredictionUndone => "prediction_undone",
            EventKind::EarlyResolve { .. } => "early_resolve",
            EventKind::CancelAtRename { .. } => "cancel_at_rename",
            EventKind::UnguardAtRename { .. } => "unguard_at_rename",
            EventKind::PredicationFlush => "predication_flush",
            EventKind::BranchFlush => "branch_flush",
            EventKind::MeasurementBegin => "measurement_begin",
            EventKind::Retire { .. } => "retire",
        }
    }

    fn detail_fields(&self, obj: Json) -> Json {
        match *self {
            EventKind::PredictionMade {
                taken,
                from_predicate,
            } => obj
                .field("taken", Json::Bool(taken))
                .field("from_predicate", Json::Bool(from_predicate)),
            EventKind::PredictionOverridden { from, to } => obj
                .field("from", Json::Bool(from))
                .field("to", Json::Bool(to)),
            EventKind::EarlyResolve { taken } => obj.field("taken", Json::Bool(taken)),
            EventKind::CancelAtRename { wrong } | EventKind::UnguardAtRename { wrong } => {
                obj.field("wrong", Json::Bool(wrong))
            }
            EventKind::Retire {
                fetch,
                rename,
                issue,
                exec,
                commit,
            } => obj
                .field("fetch", fetch)
                .field("rename", rename)
                .field("issue", issue)
                .field("exec", exec)
                .field("commit", commit),
            EventKind::PredictionUndone
            | EventKind::PredicationFlush
            | EventKind::BranchFlush
            | EventKind::MeasurementBegin => obj,
        }
    }
}

/// One traced event: which dynamic instruction (`seq`), which static site
/// (`pc`), when (`cycle`), and what happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dynamic instruction sequence number.
    pub seq: u64,
    /// Static program counter / instruction slot.
    pub pc: u64,
    /// Simulated cycle the event is attributed to.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Renders the event as a flat JSON object.
    pub fn to_json(&self) -> Json {
        let obj = Json::obj()
            .field("seq", self.seq)
            .field("pc", self.pc)
            .field("cycle", self.cycle)
            .field("kind", Json::Str(self.kind.tag().to_string()));
        self.kind.detail_fields(obj)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] seq {:>6} pc {:>4} {}",
            self.cycle,
            self.seq,
            self.pc,
            self.kind.tag()
        )?;
        match self.kind {
            EventKind::PredictionMade {
                taken,
                from_predicate,
            } => write!(
                f,
                " taken={taken}{}",
                if from_predicate { " (predicate)" } else { "" }
            ),
            EventKind::PredictionOverridden { from, to } => write!(f, " {from}->{to}"),
            EventKind::EarlyResolve { taken } => write!(f, " taken={taken}"),
            EventKind::CancelAtRename { wrong } | EventKind::UnguardAtRename { wrong } => {
                write!(f, "{}", if wrong { " WRONG" } else { "" })
            }
            EventKind::Retire {
                fetch,
                rename,
                issue,
                exec,
                commit,
            } => write!(f, " f={fetch} r={rename} i={issue} x={exec} c={commit}"),
            _ => Ok(()),
        }
    }
}

/// A bounded event trace that keeps the **most recent** `capacity` events
/// and counts how many older ones were dropped.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    recorded: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (`0` disables recording
    /// but still counts).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            recorded: 0,
        }
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        self.recorded += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring retains no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events that were recorded but evicted by newer ones.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the trace as `{"recorded", "dropped", "events": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("recorded", self.recorded)
            .field("dropped", self.dropped())
            .field(
                "events",
                Json::Arr(self.buf.iter().map(TraceEvent::to_json).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            pc: seq * 4,
            cycle: seq * 10,
            kind,
        }
    }

    #[test]
    fn ring_keeps_latest_and_counts_drops() {
        let mut r = EventRing::new(2);
        for i in 0..5 {
            r.push(ev(i, EventKind::BranchFlush));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 3);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [3, 4], "latest events survive");
    }

    #[test]
    fn zero_capacity_counts_without_storing() {
        let mut r = EventRing::new(0);
        r.push(ev(1, EventKind::PredictionUndone));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn json_includes_kind_details() {
        let mut r = EventRing::new(8);
        r.push(ev(
            1,
            EventKind::PredictionMade {
                taken: true,
                from_predicate: true,
            },
        ));
        r.push(ev(
            2,
            EventKind::PredictionOverridden {
                from: false,
                to: true,
            },
        ));
        r.push(ev(
            3,
            EventKind::Retire {
                fetch: 1,
                rename: 2,
                issue: 3,
                exec: 4,
                commit: 5,
            },
        ));
        let j = r.to_json().to_string();
        assert!(j.contains("\"prediction_made\""), "{j}");
        assert!(j.contains("\"from_predicate\":true"), "{j}");
        assert!(j.contains("\"commit\":5"), "{j}");
        let parsed = Json::parse(&j).unwrap();
        assert_eq!(parsed.get("recorded").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn json_saturates_values_past_i64() {
        let e = TraceEvent {
            seq: u64::MAX,
            pc: 1 << 63,
            cycle: 9,
            kind: EventKind::Retire {
                fetch: u64::MAX,
                rename: 1,
                issue: 2,
                exec: 3,
                commit: u64::MAX,
            },
        };
        let j = e.to_json().to_string();
        let max = i64::MAX;
        assert!(j.contains(&format!("\"seq\":{max},\"pc\":{max},")), "{j}");
        assert!(j.contains(&format!("\"commit\":{max}")), "{j}");
        assert!(!j.contains('-'), "{j}");
    }

    #[test]
    fn measurement_marker_is_detail_free() {
        let e = ev(0, EventKind::MeasurementBegin);
        assert_eq!(e.kind.tag(), "measurement_begin");
        let j = e.to_json().to_string();
        assert!(j.contains("\"measurement_begin\""), "{j}");
        // Positional marker: nothing beyond the common fields.
        let parsed = Json::parse(&j).unwrap();
        assert!(parsed.get("taken").is_none(), "{j}");
    }

    #[test]
    fn display_is_compact() {
        let e = ev(7, EventKind::CancelAtRename { wrong: true });
        let s = e.to_string();
        assert!(s.contains("cancel_at_rename"), "{s}");
        assert!(s.contains("WRONG"), "{s}");
    }
}
