//! Pinpoint-style interval sampling.
//!
//! A [`SampleSpec`] turns one long timing run into `count` short measured
//! windows spaced `stride` committed instructions apart. Each window is
//! reached cheaply (a cursor seek into one functional capture of the
//! schedule's span, never the timing model), then simulated through a
//! `warmup` phase that trains the predictors, caches and TLBs without
//! reporting, and finally a `measure` phase whose statistics are kept.
//! Summing the measured windows' raw counters gives the suite-level
//! estimate: aggregate misprediction rate is
//! `Σ mispredicts / Σ cond_branches`, aggregate IPC is
//! `Σ committed / Σ cycles` — each window weighted by the work it did, as
//! SimPoint/Pinpoint weighting does for equal-length intervals.

use std::fmt;

/// The sampled-run schedule: where the measured windows sit in the
/// committed-instruction stream and how long each phase lasts.
///
/// Window `i` occupies committed-instruction positions
/// `[skip + i*stride, skip + i*stride + warmup + measure)`; the first
/// `warmup` instructions of each window train but do not report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSpec {
    /// Instructions to fast-forward before the first window (cold-start
    /// region the paper-style runs also discard).
    pub skip: u64,
    /// Functional-warmup instructions per window: simulated through the
    /// full timing model so predictors and caches train, but excluded
    /// from the reported statistics.
    pub warmup: u64,
    /// Measured instructions per window.
    pub measure: u64,
    /// Distance between consecutive window starts.
    pub stride: u64,
    /// Number of windows.
    pub count: u32,
}

impl SampleSpec {
    /// The default schedule used by `ppsim suite --sample` without an
    /// explicit spec: one window of 100k measured instructions behind
    /// 100k of warmup, after skipping the unrepresentative first 100k
    /// commits. Chosen empirically with `ppsim bench --sample` at the
    /// default 500k-commit budget: PEP-PA's large local-history tables
    /// need ~100k instructions of training before their miss rate
    /// settles, so at this budget one long-warmup window beats several
    /// short ones (every Figure-6a scheme-average lands within 0.11 pp
    /// of the full run at ~2.2x less timing work). Larger commit budgets
    /// amortize the per-window warmup and favor `count > 1`.
    pub fn default_spec() -> SampleSpec {
        SampleSpec {
            skip: 100_000,
            warmup: 100_000,
            measure: 100_000,
            stride: 200_000,
            count: 1,
        }
    }

    /// Committed-instruction position where window `i` starts (its warmup
    /// phase begins here).
    pub fn window_start(&self, i: u32) -> u64 {
        self.skip + u64::from(i) * self.stride
    }

    /// Committed instructions the *functional* stream must cover: the end
    /// of the last window. A shared trace capture of this length serves
    /// every window.
    pub fn span(&self) -> u64 {
        self.window_start(self.count.saturating_sub(1)) + self.warmup + self.measure
    }

    /// Total instructions the timing model actually simulates
    /// (`count * (warmup + measure)`); the rest of the span is functional
    /// fast-forward.
    pub fn simulated(&self) -> u64 {
        u64::from(self.count) * (self.warmup + self.measure)
    }

    /// Checks the schedule is usable: at least one window, a nonzero
    /// measured phase, and windows that do not overlap.
    pub fn validate(&self) -> Result<(), SampleSpecError> {
        if self.count == 0 {
            return Err(SampleSpecError::ZeroCount);
        }
        if self.measure == 0 {
            return Err(SampleSpecError::ZeroMeasure);
        }
        if self.count > 1 && self.stride < self.warmup + self.measure {
            return Err(SampleSpecError::OverlappingWindows {
                stride: self.stride,
                window: self.warmup + self.measure,
            });
        }
        Ok(())
    }

    /// Parses the CLI form `skip:warmup:measure:stride:count` (the exact
    /// inverse of [`SampleSpec::canon`]) and validates the result.
    pub fn parse(s: &str) -> Result<SampleSpec, SampleSpecError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 5 {
            return Err(SampleSpecError::Malformed(s.to_string()));
        }
        let num = |p: &str| -> Result<u64, SampleSpecError> {
            p.parse::<u64>()
                .map_err(|_| SampleSpecError::Malformed(s.to_string()))
        };
        let spec = SampleSpec {
            skip: num(parts[0])?,
            warmup: num(parts[1])?,
            measure: num(parts[2])?,
            stride: num(parts[3])?,
            count: u32::try_from(num(parts[4])?)
                .map_err(|_| SampleSpecError::Malformed(s.to_string()))?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Canonical `skip:warmup:measure:stride:count` rendering, used in
    /// cache keys and report headers.
    pub fn canon(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.skip, self.warmup, self.measure, self.stride, self.count
        )
    }
}

/// An unusable [`SampleSpec`], from validation or CLI parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleSpecError {
    /// `count == 0`: no windows to measure.
    ZeroCount,
    /// `measure == 0`: windows would report nothing.
    ZeroMeasure,
    /// Consecutive windows overlap (`stride < warmup + measure`), which
    /// would double-count instructions in the aggregate.
    OverlappingWindows {
        /// The offending stride.
        stride: u64,
        /// Per-window length (`warmup + measure`).
        window: u64,
    },
    /// Not of the `skip:warmup:measure:stride:count` form.
    Malformed(String),
}

impl fmt::Display for SampleSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleSpecError::ZeroCount => write!(f, "sample spec needs count >= 1"),
            SampleSpecError::ZeroMeasure => write!(f, "sample spec needs measure >= 1"),
            SampleSpecError::OverlappingWindows { stride, window } => write!(
                f,
                "sample windows overlap: stride {stride} < warmup+measure {window}"
            ),
            SampleSpecError::Malformed(s) => {
                write!(
                    f,
                    "bad sample spec `{s}` (want skip:warmup:measure:stride:count)"
                )
            }
        }
    }
}

impl std::error::Error for SampleSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_and_parse_round_trip() {
        let spec = SampleSpec::default_spec();
        assert_eq!(spec.canon(), "100000:100000:100000:200000:1");
        assert_eq!(SampleSpec::parse(&spec.canon()).unwrap(), spec);
    }

    #[test]
    fn window_arithmetic() {
        let spec = SampleSpec {
            skip: 100,
            warmup: 10,
            measure: 40,
            stride: 60,
            count: 3,
        };
        assert_eq!(spec.window_start(0), 100);
        assert_eq!(spec.window_start(2), 220);
        assert_eq!(spec.span(), 270);
        assert_eq!(spec.simulated(), 150);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let base = SampleSpec::default_spec();
        assert_eq!(
            SampleSpec { count: 0, ..base }.validate(),
            Err(SampleSpecError::ZeroCount)
        );
        assert_eq!(
            SampleSpec { measure: 0, ..base }.validate(),
            Err(SampleSpecError::ZeroMeasure)
        );
        assert!(matches!(
            SampleSpec {
                stride: 1,
                count: 2,
                ..base
            }
            .validate(),
            Err(SampleSpecError::OverlappingWindows { .. })
        ));
        // A single window never overlaps itself, whatever the stride.
        assert!(SampleSpec {
            stride: 0,
            count: 1,
            ..base
        }
        .validate()
        .is_ok());
        assert!(SampleSpec::parse("1:2:3").is_err());
        assert!(SampleSpec::parse("a:b:c:d:e").is_err());
        assert!(SampleSpec::parse("0:0:0:0:0").is_err());
    }
}
