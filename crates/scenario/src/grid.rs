//! Config-grid expansion for ablation sweeps.
//!
//! A [`SweepGrid`] declares the axes of an experiment — scenario presets
//! × seeds × fault rates × breaker settings — and [`SweepGrid::expand`]
//! materializes the full factorial product as [`GridCell`]s. Each cell
//! carries two configs: `base` (preset + seed, swept knobs *not*
//! applied) and `config` (swept knobs applied). The pair is what makes
//! checkpoint warm-starts legal: cells sharing a `base` share the
//! campaign prefix exactly, so a sweep pays the prefix once per
//! `(preset, seed)` group and each cell continues as a fork of it
//! ([`crate::driver::Start::Prefix`]) — its swept knobs taking effect
//! from the divergence time, identically to a standalone
//! [`crate::driver::run_forked`] of the same pair.
//!
//! Expansion is pure and deterministic: the same grid always yields the
//! same cells in the same order, with stable labels usable as file
//! names (`faulty-s7-fp0.15-brkadp600`).

use crate::config::ScenarioConfig;
use dmsa_gridnet::HealthConfig;
use dmsa_simcore::SimDuration;

/// One point on the breaker axis.
#[derive(Clone, Debug, PartialEq)]
pub enum BreakerSetting {
    /// Health loop disarmed (open-loop baseline).
    Off,
    /// Health loop armed with [`HealthConfig::adaptive`] thresholds,
    /// optionally overriding the open-state cooldown.
    Adaptive {
        /// Cooldown override in seconds; `None` keeps the adaptive
        /// preset's cooldown.
        cooldown_secs: Option<i64>,
    },
}

impl BreakerSetting {
    /// Stable label segment (also the knob value in aggregation keys).
    pub fn label(&self) -> String {
        match self {
            BreakerSetting::Off => "off".into(),
            BreakerSetting::Adaptive {
                cooldown_secs: None,
            } => "adp".into(),
            BreakerSetting::Adaptive {
                cooldown_secs: Some(s),
            } => format!("adp{s}"),
        }
    }

    fn apply(&self, config: &mut ScenarioConfig) {
        match self {
            BreakerSetting::Off => config.health = HealthConfig::default(),
            BreakerSetting::Adaptive { cooldown_secs } => {
                config.health = HealthConfig::adaptive();
                if let Some(s) = cooldown_secs {
                    config.health.cooldown = SimDuration::from_secs(*s);
                }
            }
        }
    }
}

/// One point on the preset axis: a named base config. The name is the
/// label prefix; the config supplies everything a swept knob does not
/// override.
#[derive(Clone, Debug)]
pub struct PresetAxis {
    pub name: String,
    pub base: ScenarioConfig,
}

/// The declared axes of a sweep. `seeds` and `presets` must be
/// non-empty; an empty knob axis means "inherit the preset's value"
/// (the axis contributes no label segment and no aggregation knob).
#[derive(Clone, Debug)]
pub struct SweepGrid {
    pub presets: Vec<PresetAxis>,
    pub seeds: Vec<u64>,
    /// Per-attempt transfer failure probabilities.
    pub fail_probs: Vec<f64>,
    /// Breaker settings.
    pub breakers: Vec<BreakerSetting>,
}

/// One materialized cell of the grid.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Stable, filesystem-safe identity, e.g. `faulty-s7-fp0.15-brkadp`.
    pub label: String,
    pub seed: u64,
    /// Preset + seed only — the config whose campaign prefix this cell
    /// shares with every other cell of the same `(preset, seed)` group.
    pub base: ScenarioConfig,
    /// `base` with the swept knobs applied — what the cell actually
    /// runs (from t=0 when cold, from the divergence time when
    /// warm-started).
    pub config: ScenarioConfig,
    /// `(axis, value)` pairs for cross-cell aggregation, e.g.
    /// `[("preset","faulty"), ("seed","7"), ("fail_prob","0.15"),
    /// ("breaker","adp")]`.
    pub knobs: Vec<(String, String)>,
}

impl GridCell {
    /// The value of one aggregation axis, if this grid swept it.
    pub fn knob(&self, axis: &str) -> Option<&str> {
        self.knobs
            .iter()
            .find(|(k, _)| k == axis)
            .map(|(_, v)| v.as_str())
    }
}

impl SweepGrid {
    /// Number of cells [`expand`](Self::expand) will produce.
    pub fn n_cells(&self) -> usize {
        self.presets.len()
            * self.seeds.len()
            * self.fail_probs.len().max(1)
            * self.breakers.len().max(1)
    }

    /// Order- and content-sensitive identity of this grid: a hash over
    /// every expanded cell's `(label, behavior fingerprint)`. Two grids
    /// fingerprint equal iff they expand to the same cells running the
    /// same behaviors in the same order — the gate a sweep journal uses
    /// to decide whether its records describe *this* sweep. Errors on
    /// the same degenerate grids [`expand`](Self::expand) rejects.
    pub fn fingerprint(&self) -> Result<u64, String> {
        let mut acc = String::new();
        for cell in self.expand()? {
            acc.push_str(&cell.label);
            acc.push('\t');
            acc.push_str(&format!("{:016x}", cell.config.behavior_fingerprint()));
            acc.push('\n');
        }
        Ok(dmsa_simcore::fx::hash_bytes(acc.as_bytes()))
    }

    /// Materialize the full factorial product, in deterministic order
    /// (presets outermost, breakers innermost). Labels are unique by
    /// construction: every swept axis contributes a segment, and
    /// duplicate axis values are rejected.
    pub fn expand(&self) -> Result<Vec<GridCell>, String> {
        if self.presets.is_empty() {
            return Err("sweep grid has no presets".into());
        }
        if self.seeds.is_empty() {
            return Err("sweep grid has no seeds".into());
        }
        for (name, dup) in [
            ("seeds", has_dup(&self.seeds)),
            ("fail-probs", has_dup(&self.fail_probs)),
            (
                "breakers",
                has_dup(&self.breakers.iter().map(|b| b.label()).collect::<Vec<_>>()),
            ),
            (
                "presets",
                has_dup(
                    &self
                        .presets
                        .iter()
                        .map(|p| p.name.clone())
                        .collect::<Vec<_>>(),
                ),
            ),
        ] {
            if dup {
                return Err(format!("sweep grid {name} axis repeats a value"));
            }
        }
        let mut cells = Vec::with_capacity(self.n_cells());
        for preset in &self.presets {
            for &seed in &self.seeds {
                let mut base = preset.base.clone();
                base.seed = seed;
                // An absent axis iterates once with `None`: no label
                // segment, no knob, preset value untouched.
                for fp in opt_axis(&self.fail_probs) {
                    for brk in opt_axis(&self.breakers) {
                        let mut config = base.clone();
                        let mut label = format!("{}-s{seed}", preset.name);
                        let mut knobs = vec![
                            ("preset".to_string(), preset.name.clone()),
                            ("seed".to_string(), seed.to_string()),
                        ];
                        if let Some(fp) = fp {
                            config.faults.p_attempt_failure = *fp;
                            label.push_str(&format!("-fp{fp}"));
                            knobs.push(("fail_prob".to_string(), fp.to_string()));
                        }
                        if let Some(brk) = brk {
                            brk.apply(&mut config);
                            label.push_str(&format!("-brk{}", brk.label()));
                            knobs.push(("breaker".to_string(), brk.label()));
                        }
                        cells.push(GridCell {
                            label,
                            seed,
                            base: base.clone(),
                            config,
                            knobs,
                        });
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// Iterate an optional axis: every value when declared, one `None` pass
/// when absent.
fn opt_axis<T>(axis: &[T]) -> impl Iterator<Item = Option<&T>> {
    let absent = axis.is_empty();
    axis.iter()
        .map(Some)
        .chain(std::iter::once(None).filter(move |_| absent))
}

fn has_dup<T: PartialEq>(xs: &[T]) -> bool {
    xs.iter()
        .enumerate()
        .any(|(i, x)| xs[..i].iter().any(|y| y == x))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid {
            presets: vec![PresetAxis {
                name: "faulty".into(),
                base: ScenarioConfig::small_faulty(),
            }],
            seeds: vec![1, 7],
            fail_probs: vec![0.05, 0.15],
            breakers: vec![
                BreakerSetting::Off,
                BreakerSetting::Adaptive {
                    cooldown_secs: Some(600),
                },
            ],
        }
    }

    #[test]
    fn expansion_is_the_full_factorial_product_with_unique_labels() {
        let cells = grid().expand().unwrap();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells.len(), grid().n_cells());
        let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8, "labels collide");
        assert!(cells
            .iter()
            .any(|c| c.label == "faulty-s7-fp0.15-brkadp600"));
    }

    #[test]
    fn cells_apply_knobs_to_config_but_not_base() {
        for c in grid().expand().unwrap() {
            assert_eq!(c.base.seed, c.seed);
            assert_eq!(c.config.seed, c.seed);
            // base keeps the preset's knob values...
            assert_eq!(
                c.base.faults.p_attempt_failure,
                ScenarioConfig::small_faulty().faults.p_attempt_failure
            );
            assert!(!c.base.health.enabled);
            // ...config carries the swept ones.
            let fp: f64 = c.knob("fail_prob").unwrap().parse().unwrap();
            assert_eq!(c.config.faults.p_attempt_failure, fp);
            let armed = c.knob("breaker").unwrap() != "off";
            assert_eq!(c.config.health.enabled, armed);
            if armed {
                assert_eq!(c.config.health.cooldown, SimDuration::from_secs(600));
            }
            // The fork invariant: swept knobs never touch structure.
            assert_eq!(
                c.base.structural_fingerprint(),
                c.config.structural_fingerprint()
            );
        }
    }

    #[test]
    fn absent_axes_inherit_the_preset_and_add_no_label_segment() {
        let g = SweepGrid {
            fail_probs: vec![],
            breakers: vec![],
            ..grid()
        };
        let cells = g.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "faulty-s1");
        assert_eq!(cells[0].knob("fail_prob"), None);
        assert_eq!(
            cells[0].config.faults.p_attempt_failure,
            ScenarioConfig::small_faulty().faults.p_attempt_failure
        );
    }

    #[test]
    fn degenerate_and_duplicate_grids_are_rejected() {
        assert!(SweepGrid {
            seeds: vec![],
            ..grid()
        }
        .expand()
        .is_err());
        assert!(SweepGrid {
            presets: vec![],
            ..grid()
        }
        .expand()
        .is_err());
        let err = SweepGrid {
            seeds: vec![3, 3],
            ..grid()
        }
        .expand()
        .unwrap_err();
        assert!(err.contains("seeds"), "{err}");
        assert!(SweepGrid {
            fail_probs: vec![0.1, 0.1],
            ..grid()
        }
        .expand()
        .is_err());
    }

    #[test]
    fn fingerprint_tracks_grid_identity() {
        let a = grid().fingerprint().unwrap();
        assert_eq!(a, grid().fingerprint().unwrap(), "not deterministic");
        // Any axis change moves the fingerprint...
        let mut g = grid();
        g.seeds = vec![1, 8];
        assert_ne!(a, g.fingerprint().unwrap());
        let mut g = grid();
        g.fail_probs = vec![0.05, 0.16];
        assert_ne!(a, g.fingerprint().unwrap());
        // ...and so does axis *order* (cells would land in other slots).
        let mut g = grid();
        g.seeds = vec![7, 1];
        assert_ne!(a, g.fingerprint().unwrap());
        // Degenerate grids error rather than fingerprinting.
        assert!(SweepGrid {
            seeds: vec![],
            ..grid()
        }
        .fingerprint()
        .is_err());
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = grid().expand().unwrap();
        let b = grid().expand().unwrap();
        let fmt = |cells: &[GridCell]| format!("{cells:?}");
        assert_eq!(fmt(&a), fmt(&b));
    }
}
