//! Inference requests and their outcomes.
//!
//! A request names a model from the fleet's [catalog](crate::ModelCatalog)
//! and carries a seed for its synthetic input; what comes back is either a
//! completed execution record or a typed rejection: the model is not in
//! the catalog, or the fleet could not deploy it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use vmcu_graph::zoo::NamedGraph;

/// One inference request offered to the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Stable request id (order of submission).
    pub id: u64,
    /// Catalog name of the model to run.
    pub model: String,
    /// Seed for the request's synthetic input tensor.
    pub seed: u64,
}

/// Why the fleet refused a request: its model is not in the catalog, or
/// the fleet could not deploy it. Both serving paths reject exactly
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The model name is not in the fleet's catalog.
    UnknownModel,
    /// The model's graph has no layers: there is nothing to execute.
    EmptyModel,
    /// Even an empty device cannot host this model under the fleet's
    /// planner — the paper's "fails to run" outcome.
    TooLargeForDevice {
        /// Peak SRAM demand of the model (activations + workspace +
        /// runtime overhead).
        needed: usize,
        /// Device SRAM capacity.
        available: usize,
    },
    /// The model did not deploy for another reason, such as a firmware
    /// image larger than the device's Flash; carries the rendered
    /// engine error.
    DeployFailed(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownModel => f.write_str("model not in catalog"),
            RejectReason::EmptyModel => f.write_str("model has no layers"),
            RejectReason::TooLargeForDevice { needed, available } => write!(
                f,
                "model needs {needed} bytes but the device has {available}"
            ),
            RejectReason::DeployFailed(error) => write!(f, "model did not deploy: {error}"),
        }
    }
}

/// Execution record of a completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Worker (device) index that executed the request.
    pub worker: usize,
    /// Simulated on-device latency in milliseconds.
    pub latency_ms: f64,
    /// Simulated energy in millijoules.
    pub energy_mj: f64,
    /// Peak measured RAM of the inference in bytes.
    pub peak_ram_bytes: usize,
}

/// Outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Admitted and executed.
    Completed(Completion),
    /// Refused at admission: the fleet does not serve the model.
    Rejected(RejectReason),
    /// Admitted but failed during execution — a planner/kernel bug
    /// surfaced as a typed engine error (rendered); never expected in a
    /// healthy build, but a serving system must not panic on it.
    Failed(String),
}

impl Outcome {
    /// The completion record, if the request was admitted and executed.
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            Outcome::Completed(c) => Some(c),
            Outcome::Rejected(_) | Outcome::Failed(_) => None,
        }
    }
}

/// A deterministic request stream: `n` requests drawn uniformly from the
/// catalog, seeded so that every run (and every CI machine) offers the
/// fleet the same load.
///
/// # Panics
///
/// Panics if the catalog is empty.
pub fn random_stream(catalog: &[NamedGraph], n: usize, seed: u64) -> Vec<RequestSpec> {
    assert!(!catalog.is_empty(), "catalog must not be empty");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let model = catalog[rng.gen_range(0..catalog.len())].name.to_owned();
            RequestSpec {
                id,
                model,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_graph::zoo;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let cat = zoo::fleet_catalog();
        let a = random_stream(&cat, 32, 7);
        let b = random_stream(&cat, 32, 7);
        assert_eq!(a, b);
        let c = random_stream(&cat, 32, 8);
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.len(), 32);
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn reject_reasons_render_with_numbers() {
        let s = RejectReason::TooLargeForDevice {
            needed: 253_000,
            available: 131_072,
        }
        .to_string();
        assert!(s.contains("253000") && s.contains("131072"));
        assert!(RejectReason::DeployFailed("flash overflow".into())
            .to_string()
            .contains("flash overflow"));
    }
}
