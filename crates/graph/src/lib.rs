//! # vmcu-graph — model graphs and the evaluation model zoo
//!
//! DNN [graphs](graph::Graph) — linear chains and branchy DAGs with
//! explicit multi-input edges — over the kernel parameter blocks, a
//! [reference executor](exec) (oracle), and the [zoo] containing
//! every workload of the paper's evaluation: the nine Figure 7/8
//! single-layer cases and all Table 2 inverted-bottleneck modules of
//! MCUNet-5fps-VWW and MCUNet-320KB-ImageNet.
//!
//! # Examples
//!
//! ```
//! use vmcu_graph::zoo;
//!
//! let vww = zoo::mcunet_5fps_vww();
//! assert_eq!(vww.len(), 8);
//! // S1 is the network's memory bottleneck in the paper.
//! assert_eq!(vww[0].params.in_bytes() + vww[0].params.mid_bytes(), 25_600);
//! ```

pub mod exec;
#[allow(clippy::module_inception)]
pub mod graph;
pub mod layer;
pub mod zoo;

pub use graph::{Graph, GraphBuildError, NodeInput, ShapeMismatchError};
pub use layer::{DegenerateLayer, LayerDesc, LayerWeights};
