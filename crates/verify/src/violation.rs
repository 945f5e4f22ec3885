//! Typed hazard findings and the per-deployment audit report.
//!
//! Every check in this crate reports through [`Violation`]: a machine-
//! readable record naming the offending site (layer, fused group, tile,
//! or schedule step) and the byte range or tensor involved. A clean
//! [`AuditReport`] is the static proof object the paper's safety
//! argument calls for — no hazard exists *by construction of the plan*,
//! not merely on the inputs a differential test happened to run.

use std::fmt;

/// One statically proven hazard in a memory plan.
///
/// Byte-granular checks (pool replay) fill `byte`/`len` with pool-logical
/// addresses; tensor-granular checks (schedule audit) reuse the same
/// fields with the tensor id in `byte` and the tensor size in `len` —
/// the `site` string always says which view applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A producer store landed on a byte still holding live data.
    Clobber {
        /// Offending layer / group / tile.
        site: String,
        /// First clobbered byte (pool-logical address).
        byte: i64,
        /// Length of the offending store.
        len: usize,
    },
    /// A demand or access exceeded its arena / RAM budget.
    OutOfBounds {
        /// Offending layer / group / tile.
        site: String,
        /// Bytes the plan actually needs at this site.
        needed: usize,
        /// Bytes the budget allows.
        budget: usize,
    },
    /// Bytes or tensors never freed (or an output range never produced).
    Leak {
        /// Offending layer / group / tile.
        site: String,
        /// First leaked byte, or tensor id for schedule-level leaks.
        byte: i64,
        /// Extent of the leak in bytes.
        len: usize,
        /// What exactly leaked (e.g. `input byte never freed`).
        detail: String,
    },
    /// A byte range or tensor was freed twice.
    DoubleFree {
        /// Offending layer / group / tile.
        site: String,
        /// First doubly freed byte, or tensor id.
        byte: i64,
        /// Extent of the double free in bytes.
        len: usize,
    },
    /// A planned execution distance is below the re-derived minimum, so
    /// some store would overwrite a not-yet-consumed input byte.
    DistanceTooSmall {
        /// Offending layer / group.
        site: String,
        /// Distance the plan carries.
        planned: i64,
        /// Minimum distance re-derived from the trace.
        derived: i64,
    },
    /// A tensor was consumed (or freed) while not live — freed too
    /// early, or never produced at all.
    UseAfterFree {
        /// Offending schedule step.
        site: String,
        /// Tensor id (0 = graph input, `1 + j` = node `j`'s output).
        tensor: usize,
        /// What exactly went wrong.
        detail: String,
    },
}

impl Violation {
    /// The offending site label.
    pub fn site(&self) -> &str {
        match self {
            Violation::Clobber { site, .. }
            | Violation::OutOfBounds { site, .. }
            | Violation::Leak { site, .. }
            | Violation::DoubleFree { site, .. }
            | Violation::DistanceTooSmall { site, .. }
            | Violation::UseAfterFree { site, .. } => site,
        }
    }

    /// The same finding with its site label prefixed (`"{prefix}: {site}"`),
    /// e.g. by the split stage it was found in.
    #[must_use]
    pub fn prefixed(mut self, prefix: &str) -> Self {
        let site = self.site_mut();
        *site = format!("{prefix}: {site}");
        self
    }

    /// The same finding reported at `site`, e.g. a certified layer's
    /// replay verdict at one of the sites the layer appears.
    #[must_use]
    pub(crate) fn at(mut self, site: &str) -> Self {
        *self.site_mut() = site.into();
        self
    }

    fn site_mut(&mut self) -> &mut String {
        let (Violation::Clobber { site, .. }
        | Violation::OutOfBounds { site, .. }
        | Violation::Leak { site, .. }
        | Violation::DoubleFree { site, .. }
        | Violation::DistanceTooSmall { site, .. }
        | Violation::UseAfterFree { site, .. }) = self;
        site
    }

    /// Stable kind tag (the taxonomy of docs/VERIFY.md).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Clobber { .. } => "Clobber",
            Violation::OutOfBounds { .. } => "OutOfBounds",
            Violation::Leak { .. } => "Leak",
            Violation::DoubleFree { .. } => "DoubleFree",
            Violation::DistanceTooSmall { .. } => "DistanceTooSmall",
            Violation::UseAfterFree { .. } => "UseAfterFree",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Clobber { site, byte, len } => {
                write!(
                    f,
                    "Clobber at {site}: store over live bytes [{byte}, {})",
                    byte + *len as i64
                )
            }
            Violation::OutOfBounds {
                site,
                needed,
                budget,
            } => {
                write!(
                    f,
                    "OutOfBounds at {site}: needs {needed} B, budget {budget} B"
                )
            }
            Violation::Leak {
                site,
                byte,
                len,
                detail,
            } => {
                write!(
                    f,
                    "Leak at {site}: [{byte}, {}) — {detail}",
                    byte + *len as i64
                )
            }
            Violation::DoubleFree { site, byte, len } => {
                write!(
                    f,
                    "DoubleFree at {site}: bytes [{byte}, {})",
                    byte + *len as i64
                )
            }
            Violation::DistanceTooSmall {
                site,
                planned,
                derived,
            } => {
                write!(
                    f,
                    "DistanceTooSmall at {site}: planned {planned}, derived minimum {derived}"
                )
            }
            Violation::UseAfterFree {
                site,
                tensor,
                detail,
            } => {
                write!(f, "UseAfterFree at {site}: tensor {tensor} — {detail}")
            }
        }
    }
}

/// Outcome of statically auditing one resolved deployment.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Planner policy name (e.g. `vMCU-fused`).
    pub planner: String,
    /// Short model description (node count and topology).
    pub model: String,
    /// Target device name.
    pub device: String,
    /// Every hazard found; empty means the plan is certified.
    pub violations: Vec<Violation>,
    /// Graph nodes whose placement was replayed or bounded.
    pub nodes_checked: usize,
    /// Execution distances independently re-derived and cross-checked
    /// against `vmcu-solver`.
    pub distances_checked: usize,
}

impl AuditReport {
    /// Whether the deployment is certified hazard-free.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} on {}: {} node(s), {} distance(s), ",
            self.planner, self.model, self.device, self.nodes_checked, self.distances_checked
        )?;
        if self.is_clean() {
            write!(f, "certified hazard-free")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixed_tags_the_site_of_every_kind() {
        let all = [
            Violation::Clobber {
                site: "s".into(),
                byte: 0,
                len: 1,
            },
            Violation::OutOfBounds {
                site: "s".into(),
                needed: 2,
                budget: 1,
            },
            Violation::Leak {
                site: "s".into(),
                byte: 0,
                len: 1,
                detail: "d".into(),
            },
            Violation::DoubleFree {
                site: "s".into(),
                byte: 0,
                len: 1,
            },
            Violation::DistanceTooSmall {
                site: "s".into(),
                planned: 0,
                derived: 1,
            },
            Violation::UseAfterFree {
                site: "s".into(),
                tensor: 0,
                detail: "d".into(),
            },
        ];
        for v in all {
            let kind = v.kind();
            let tagged = v.prefixed("stage 1");
            assert_eq!(tagged.site(), "stage 1: s", "{kind}");
            assert_eq!(tagged.kind(), kind);
        }
    }

    #[test]
    fn display_names_the_site_and_range() {
        let v = Violation::Clobber {
            site: "node 3 (pointwise)".into(),
            byte: 16,
            len: 4,
        };
        let s = v.to_string();
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("[16, 20)"), "{s}");
        assert_eq!(v.kind(), "Clobber");
        assert_eq!(v.site(), "node 3 (pointwise)");
    }

    #[test]
    fn clean_report_displays_certification() {
        let r = AuditReport {
            planner: "vMCU".into(),
            ..Default::default()
        };
        assert!(r.is_clean());
        assert!(r.to_string().contains("certified"));
    }
}
