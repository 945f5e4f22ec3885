//! Model graphs: linear chains and branchy DAGs.
//!
//! The networks the paper evaluates are linear chains of modules — the
//! very structure where scheduling-based memory optimizers (Serenity,
//! HMCOS) find nothing to reorder and vMCU's segment overlap is the only
//! lever (§8.4). A [`Graph`] is that chain generalized to a DAG: each
//! node names its inputs explicitly (the graph input or an earlier
//! node), so residual adds, concats, and multi-head trunks are
//! expressible, and a tensor stays live until its *last* consumer.
//! Node index order is the default topological order; [`Graph::linear`]
//! builds the chain special case with the same shape validation as
//! before.

use crate::layer::{DegenerateLayer, LayerDesc, LayerWeights};
use std::fmt;

/// One input edge of a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeInput {
    /// The graph's external input tensor.
    GraphInput,
    /// The output of an earlier node (by index).
    Node(usize),
}

/// A DNN graph: a DAG of layers in a fixed default topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Model name.
    pub name: String,
    layers: Vec<LayerDesc>,
    /// Per-node input edges; `inputs[i].len()` equals layer `i`'s arity.
    inputs: Vec<Vec<NodeInput>>,
}

/// Error from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatchError {
    /// Index of the offending layer.
    pub layer: usize,
    /// Producer output shape.
    pub produced: Vec<usize>,
    /// Consumer input shape.
    pub expected: Vec<usize>,
}

impl fmt::Display for ShapeMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {} expects input shape {:?} but predecessor produces {:?}",
            self.layer, self.expected, self.produced
        )
    }
}

impl std::error::Error for ShapeMismatchError {}

/// Error from DAG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphBuildError {
    /// An input edge references a shape that does not match.
    Shape(ShapeMismatchError),
    /// A node references itself or a later node (not a DAG order).
    ForwardEdge {
        /// Consumer node.
        node: usize,
        /// Referenced (not-yet-executed) producer.
        input: usize,
    },
    /// A node has the wrong number of inputs for its layer kind.
    Arity {
        /// Offending node.
        node: usize,
        /// Inputs the layer kind expects.
        expected: usize,
        /// Inputs the edge list supplies.
        got: usize,
    },
    /// A non-final node's output is never consumed.
    DeadNode {
        /// The unconsumed node.
        node: usize,
    },
    /// The graph has no nodes.
    Empty,
    /// A node's layer parameters are degenerate
    /// ([`LayerDesc::check_params`]).
    Degenerate {
        /// Offending node.
        node: usize,
        /// The rejected parameter.
        error: DegenerateLayer,
    },
}

impl fmt::Display for GraphBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphBuildError::Shape(e) => e.fmt(f),
            GraphBuildError::ForwardEdge { node, input } => {
                write!(
                    f,
                    "node {node} references node {input}, which is not earlier in the DAG order"
                )
            }
            GraphBuildError::Arity {
                node,
                expected,
                got,
            } => write!(f, "node {node} expects {expected} input(s) but got {got}"),
            GraphBuildError::DeadNode { node } => {
                write!(f, "node {node} is not the output and has no consumer")
            }
            GraphBuildError::Empty => write!(f, "graph has no nodes"),
            GraphBuildError::Degenerate { node, error } => write!(f, "node {node}: {error}"),
        }
    }
}

impl std::error::Error for GraphBuildError {}

impl From<ShapeMismatchError> for GraphBuildError {
    fn from(e: ShapeMismatchError) -> Self {
        GraphBuildError::Shape(e)
    }
}

impl Graph {
    /// Builds a linear graph, validating every layer's parameters
    /// ([`LayerDesc::check_params`]) and that consecutive layer shapes
    /// chain.
    ///
    /// # Errors
    ///
    /// Returns [`GraphBuildError::Degenerate`] for the first degenerate
    /// layer, else [`GraphBuildError::Shape`] on the first mismatching
    /// edge.
    pub fn linear(
        name: impl Into<String>,
        layers: Vec<LayerDesc>,
    ) -> Result<Self, GraphBuildError> {
        for (node, layer) in layers.iter().enumerate() {
            layer
                .check_params()
                .map_err(|error| GraphBuildError::Degenerate { node, error })?;
        }
        for i in 1..layers.len() {
            let produced = layers[i - 1].out_shape();
            let expected = layers[i].in_shape();
            if produced != expected {
                return Err(GraphBuildError::Shape(ShapeMismatchError {
                    layer: i,
                    produced,
                    expected,
                }));
            }
        }
        let inputs = (0..layers.len())
            .map(|i| {
                if i == 0 {
                    vec![NodeInput::GraphInput]
                } else {
                    vec![NodeInput::Node(i - 1)]
                }
            })
            .collect();
        Ok(Self {
            name: name.into(),
            layers,
            inputs,
        })
    }

    /// Builds a DAG from `(layer, inputs)` pairs in topological order.
    ///
    /// Validation: every layer's parameters must pass
    /// [`LayerDesc::check_params`] (checked before any of its sizes is
    /// computed), every edge must point to the graph input or an
    /// earlier node, arity must match the layer kind (merges take two
    /// inputs, everything else one), every produced shape must match the
    /// consumer's expected shape at that position, all `GraphInput`
    /// consumers must agree on the input shape, and every node except
    /// the last (the graph output) must be consumed at least once.
    ///
    /// # Errors
    ///
    /// Returns [`GraphBuildError`] naming the first offending node.
    pub fn dag(
        name: impl Into<String>,
        nodes: Vec<(LayerDesc, Vec<NodeInput>)>,
    ) -> Result<Self, GraphBuildError> {
        if nodes.is_empty() {
            return Err(GraphBuildError::Empty);
        }
        let mut graph_in: Option<Vec<usize>> = None;
        let mut consumed = vec![false; nodes.len()];
        for (i, (layer, ins)) in nodes.iter().enumerate() {
            layer
                .check_params()
                .map_err(|error| GraphBuildError::Degenerate { node: i, error })?;
            let expected_shapes = layer.in_shapes();
            if ins.len() != expected_shapes.len() {
                return Err(GraphBuildError::Arity {
                    node: i,
                    expected: expected_shapes.len(),
                    got: ins.len(),
                });
            }
            for (slot, edge) in ins.iter().enumerate() {
                let expected = &expected_shapes[slot];
                match edge {
                    NodeInput::GraphInput => match &graph_in {
                        None => graph_in = Some(expected.clone()),
                        Some(shape) if shape != expected => {
                            return Err(GraphBuildError::Shape(ShapeMismatchError {
                                layer: i,
                                produced: shape.clone(),
                                expected: expected.clone(),
                            }))
                        }
                        Some(_) => {}
                    },
                    NodeInput::Node(j) => {
                        if *j >= i {
                            return Err(GraphBuildError::ForwardEdge { node: i, input: *j });
                        }
                        let produced = nodes[*j].0.out_shape();
                        if &produced != expected {
                            return Err(GraphBuildError::Shape(ShapeMismatchError {
                                layer: i,
                                produced,
                                expected: expected.clone(),
                            }));
                        }
                        consumed[*j] = true;
                    }
                }
            }
        }
        if let Some(dead) = consumed[..nodes.len() - 1].iter().position(|c| !c) {
            return Err(GraphBuildError::DeadNode { node: dead });
        }
        let (layers, inputs) = nodes.into_iter().unzip();
        Ok(Self {
            name: name.into(),
            layers,
            inputs,
        })
    }

    /// The layers in default (index) topological order.
    pub fn layers(&self) -> &[LayerDesc] {
        &self.layers
    }

    /// Per-node input edges, parallel to [`Graph::layers`].
    pub fn inputs(&self) -> &[Vec<NodeInput>] {
        &self.inputs
    }

    /// The input edges of one node.
    pub fn node_inputs(&self, node: usize) -> &[NodeInput] {
        &self.inputs[node]
    }

    /// Whether the graph is a straight-line chain (node `i` consumes
    /// exactly node `i-1`; node 0 consumes the graph input).
    pub fn is_chain(&self) -> bool {
        self.inputs.iter().enumerate().all(|(i, ins)| {
            if i == 0 {
                ins == &[NodeInput::GraphInput]
            } else {
                ins == &[NodeInput::Node(i - 1)]
            }
        })
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input shape of the whole graph — the shape every `GraphInput`
    /// consumer expects.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    pub fn in_shape(&self) -> Vec<usize> {
        for (i, ins) in self.inputs.iter().enumerate() {
            for (slot, edge) in ins.iter().enumerate() {
                if *edge == NodeInput::GraphInput {
                    return self.layers[i].in_shapes().swap_remove(slot);
                }
            }
        }
        self.layers.first().expect("non-empty graph").in_shape()
    }

    /// Output shape of the whole graph (the last node is the output).
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    pub fn out_shape(&self) -> Vec<usize> {
        self.layers.last().expect("non-empty graph").out_shape()
    }

    /// Total weight bytes across layers (Flash budget).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(LayerDesc::weight_bytes).sum()
    }

    /// Deterministic weights for every layer.
    pub fn random_weights(&self, seed: u64) -> Vec<LayerWeights> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| LayerWeights::random(l, seed.wrapping_add(1000 * i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_kernels::params::{AddParams, ConcatParams, DepthwiseParams, PointwiseParams};
    use vmcu_tensor::Requant;

    fn pw(h: usize, c: usize, k: usize) -> LayerDesc {
        LayerDesc::Pointwise(PointwiseParams::new(h, h, c, k, Requant::identity()))
    }

    #[test]
    fn chains_validate() {
        let g = Graph::linear("g", vec![pw(8, 4, 8), pw(8, 8, 16)]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.in_shape(), vec![8, 8, 4]);
        assert_eq!(g.out_shape(), vec![8, 8, 16]);
        assert!(g.is_chain());
        assert_eq!(g.node_inputs(1), &[NodeInput::Node(0)]);
    }

    #[test]
    fn mismatches_are_rejected_with_context() {
        let err = Graph::linear("g", vec![pw(8, 4, 8), pw(8, 16, 16)]).unwrap_err();
        let GraphBuildError::Shape(err) = err else {
            panic!("expected a shape mismatch, got {err}")
        };
        assert_eq!(err.layer, 1);
        assert!(err.to_string().contains("expects input shape"));
    }

    #[test]
    fn mixed_layer_chain() {
        let g = Graph::linear(
            "g",
            vec![
                pw(8, 4, 8),
                LayerDesc::Depthwise(DepthwiseParams::new(
                    8,
                    8,
                    8,
                    3,
                    3,
                    2,
                    1,
                    Requant::identity(),
                )),
                pw(4, 8, 4),
            ],
        )
        .unwrap();
        assert_eq!(g.out_shape(), vec![4, 4, 4]);
        assert!(g.weight_bytes() > 0);
        assert_eq!(g.random_weights(1).len(), 3);
    }

    #[test]
    fn residual_dag_validates() {
        // input → pw → Add(pw_out, input): the graph input stays live
        // until the merge.
        let g = Graph::dag(
            "res",
            vec![
                (pw(8, 4, 4), vec![NodeInput::GraphInput]),
                (
                    LayerDesc::Add(AddParams::new(8, 8, 4)),
                    vec![NodeInput::Node(0), NodeInput::GraphInput],
                ),
            ],
        )
        .unwrap();
        assert!(!g.is_chain());
        assert_eq!(g.in_shape(), vec![8, 8, 4]);
        assert_eq!(g.out_shape(), vec![8, 8, 4]);
    }

    #[test]
    fn two_head_concat_validates() {
        let g = Graph::dag(
            "heads",
            vec![
                (pw(8, 4, 8), vec![NodeInput::GraphInput]),
                (pw(8, 8, 6), vec![NodeInput::Node(0)]),
                (pw(8, 8, 10), vec![NodeInput::Node(0)]),
                (
                    LayerDesc::Concat(ConcatParams::new(8, 8, 6, 10)),
                    vec![NodeInput::Node(1), NodeInput::Node(2)],
                ),
            ],
        )
        .unwrap();
        assert_eq!(g.out_shape(), vec![8, 8, 16]);
    }

    #[test]
    fn forward_edges_are_rejected() {
        let err = Graph::dag(
            "bad",
            vec![
                (pw(8, 4, 4), vec![NodeInput::Node(1)]),
                (pw(8, 4, 4), vec![NodeInput::GraphInput]),
            ],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GraphBuildError::ForwardEdge { node: 0, input: 1 }
        ));
    }

    #[test]
    fn merge_arity_is_enforced() {
        let err = Graph::dag(
            "bad",
            vec![
                (pw(8, 4, 4), vec![NodeInput::GraphInput]),
                (
                    LayerDesc::Add(AddParams::new(8, 8, 4)),
                    vec![NodeInput::Node(0)],
                ),
            ],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GraphBuildError::Arity {
                node: 1,
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn dead_nodes_are_rejected() {
        let err = Graph::dag(
            "bad",
            vec![
                (pw(8, 4, 4), vec![NodeInput::GraphInput]),
                (pw(8, 4, 8), vec![NodeInput::GraphInput]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, GraphBuildError::DeadNode { node: 0 }));
    }

    #[test]
    fn branch_shape_mismatches_are_rejected() {
        let err = Graph::dag(
            "bad",
            vec![
                (pw(8, 4, 6), vec![NodeInput::GraphInput]),
                (
                    LayerDesc::Add(AddParams::new(8, 8, 4)),
                    vec![NodeInput::Node(0), NodeInput::GraphInput],
                ),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, GraphBuildError::Shape(_)));
    }
}
