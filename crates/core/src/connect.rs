//! Connectedness of stacked permuted-diagonal layers (Section III-E).
//!
//! The paper's universal-approximation argument rests on a structural property: when the
//! permutation parameters `k_l` are not all identical, the sparse connections of a stack
//! of block-permuted-diagonal layers "do not block away information from any neuron in
//! the previous layer" — every input neuron can reach every output neuron through some
//! path. This module makes that property checkable: it builds the bipartite connectivity
//! of each PD layer and computes reachability through a stack of layers.

use std::collections::VecDeque;

use crate::BlockPermDiagMatrix;

/// The neuron-level connectivity of a single PD layer: `reaches[i]` lists the input
/// neurons `j` with a structural connection to output neuron `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerConnectivity {
    /// Number of output neurons.
    pub outputs: usize,
    /// Number of input neurons.
    pub inputs: usize,
    /// Adjacency list: for each output neuron, the connected input neurons.
    pub reaches: Vec<Vec<usize>>,
}

/// Extracts the structural connectivity of one block-permuted-diagonal matrix.
pub fn layer_connectivity(w: &BlockPermDiagMatrix) -> LayerConnectivity {
    let mut reaches = vec![Vec::new(); w.rows()];
    let p = w.p();
    for br in 0..w.block_rows() {
        for bc in 0..w.block_cols() {
            let l = br * w.block_cols() + bc;
            let k = usize::from(w.perms()[l]);
            for c in 0..p {
                let i = br * p + c;
                let j = bc * p + (c + k) % p;
                if i < w.rows() && j < w.cols() {
                    reaches[i].push(j);
                }
            }
        }
    }
    LayerConnectivity {
        outputs: w.rows(),
        inputs: w.cols(),
        reaches,
    }
}

/// Returns, for every output neuron of the last layer in `layers`, the set of input
/// neurons of the first layer that can reach it through the stacked structural
/// connections. `layers` are ordered from input to output; layer `t+1`'s inputs are layer
/// `t`'s outputs.
///
/// # Panics
///
/// Panics if consecutive layers have mismatched dimensions.
pub fn reachable_inputs(layers: &[&BlockPermDiagMatrix]) -> Vec<Vec<bool>> {
    assert!(!layers.is_empty(), "at least one layer is required");
    for pair in layers.windows(2) {
        assert_eq!(
            pair[0].rows(),
            pair[1].cols(),
            "layer output/input dimensions must chain"
        );
    }
    let n_inputs = layers[0].cols();
    // reach[t][neuron] = bitmap over first-layer inputs.
    let first = layer_connectivity(layers[0]);
    let mut current: Vec<Vec<bool>> = first
        .reaches
        .iter()
        .map(|srcs| {
            let mut bits = vec![false; n_inputs];
            for &s in srcs {
                bits[s] = true;
            }
            bits
        })
        .collect();
    for layer in &layers[1..] {
        let conn = layer_connectivity(layer);
        let mut next = vec![vec![false; n_inputs]; conn.outputs];
        for (i, srcs) in conn.reaches.iter().enumerate() {
            for &mid in srcs {
                for (bit, reachable) in next[i].iter_mut().zip(current[mid].iter()) {
                    *bit = *bit || *reachable;
                }
            }
        }
        current = next;
    }
    current
}

/// Returns `true` if every output neuron of the stacked layers can be reached from every
/// input neuron of the first layer — the "connectedness" property of Section III-E.
pub fn is_fully_connected(layers: &[&BlockPermDiagMatrix]) -> bool {
    reachable_inputs(layers)
        .iter()
        .all(|bits| bits.iter().all(|&b| b))
}

/// Number of layers of a square `n × n` PD stack with block size `p` needed before full
/// connectivity is achieved, probing stacks built with the supplied permutation pattern
/// generator `perm_for_layer(layer_index, block_index) -> k`.
///
/// Returns `None` if full connectivity is not reached within `max_layers`.
pub fn depth_to_full_connectivity(
    n: usize,
    p: usize,
    max_layers: usize,
    mut perm_for_layer: impl FnMut(usize, usize) -> usize,
) -> Option<usize> {
    let mut layers: Vec<BlockPermDiagMatrix> = Vec::new();
    for depth in 1..=max_layers {
        let blocks = n.div_ceil(p) * n.div_ceil(p);
        let perms: Vec<usize> = (0..blocks)
            .map(|l| perm_for_layer(depth - 1, l) % p)
            .collect();
        let values = vec![1.0; blocks * p];
        let w = BlockPermDiagMatrix::new(n, n, p, perms, values)
            .expect("constructed dimensions are consistent");
        layers.push(w);
        let refs: Vec<&BlockPermDiagMatrix> = layers.iter().collect();
        if is_fully_connected(&refs) {
            return Some(depth);
        }
    }
    None
}

/// Breadth-first search over the undirected neuron graph of a single layer, returning the
/// number of connected components of the bipartite graph (inputs ∪ outputs). A single
/// component means no neuron group is isolated from the rest.
pub fn bipartite_components(w: &BlockPermDiagMatrix) -> usize {
    let conn = layer_connectivity(w);
    let n = conn.inputs + conn.outputs; // inputs are 0..inputs, outputs are inputs..inputs+outputs
    let mut adj = vec![Vec::new(); n];
    for (out, srcs) in conn.reaches.iter().enumerate() {
        for &inp in srcs {
            adj[inp].push(conn.inputs + out);
            adj[conn.inputs + out].push(inp);
        }
    }
    let mut seen = vec![false; n];
    let mut components = 0;
    for start in 0..n {
        if seen[start] {
            continue;
        }
        components += 1;
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PermutationIndexing;
    use pd_tensor::init::seeded_rng;

    fn unit_pd(n: usize, p: usize, perms: Vec<usize>) -> BlockPermDiagMatrix {
        let blocks = n.div_ceil(p) * n.div_ceil(p);
        BlockPermDiagMatrix::new(n, n, p, perms, vec![1.0; blocks * p]).unwrap()
    }

    #[test]
    fn single_layer_connectivity_counts() {
        let w = BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(1));
        let conn = layer_connectivity(&w);
        assert_eq!(conn.outputs, 8);
        assert_eq!(conn.inputs, 8);
        // Each output neuron connects to exactly one input per block column = 2.
        assert!(conn.reaches.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn identical_permutations_never_fully_connect() {
        // With k_l = 0 for every block of every layer, output i only ever sees inputs
        // congruent to i (mod p): the stack is NOT fully connected no matter how deep.
        let n = 8;
        let p = 4;
        let blocks = (n / p) * (n / p);
        let layers: Vec<BlockPermDiagMatrix> =
            (0..4).map(|_| unit_pd(n, p, vec![0; blocks])).collect();
        let refs: Vec<&BlockPermDiagMatrix> = layers.iter().collect();
        assert!(!is_fully_connected(&refs));
    }

    #[test]
    fn varied_permutations_reach_full_connectivity() {
        // Natural indexing (k_l = l mod p) varies the permutation across blocks, which is
        // exactly the condition Section III-E requires; a modest stack becomes fully
        // connected.
        let depth = depth_to_full_connectivity(16, 4, 8, |layer, l| l + layer);
        assert!(depth.is_some(), "stack should become fully connected");
        assert!(depth.unwrap() <= 8);
    }

    #[test]
    fn depth_none_when_blocked() {
        let depth = depth_to_full_connectivity(8, 4, 6, |_, _| 0);
        assert_eq!(depth, None);
    }

    #[test]
    fn single_block_layer_is_fully_connected_iff_p_is_1() {
        // p == n: one block per layer; a single permuted diagonal is a permutation matrix,
        // so each output sees exactly one input — not fully connected unless n == 1.
        let w = unit_pd(4, 4, vec![1]);
        assert!(!is_fully_connected(&[&w]));
        let w1 = unit_pd(1, 1, vec![0]);
        assert!(is_fully_connected(&[&w1]));
    }

    #[test]
    fn reachability_dimensions() {
        let w1 = BlockPermDiagMatrix::random(12, 8, 4, &mut seeded_rng(2));
        let w2 = BlockPermDiagMatrix::random(6, 12, 2, &mut seeded_rng(3));
        let reach = reachable_inputs(&[&w1, &w2]);
        assert_eq!(reach.len(), 6);
        assert!(reach.iter().all(|bits| bits.len() == 8));
    }

    #[test]
    fn bipartite_components_detect_isolation() {
        // k=0 diagonal blocks on an 8x8 with p=4 and a single block row/col pair per
        // residue class: inputs/outputs split into p independent groups.
        let w = unit_pd(8, 4, vec![0; 4]);
        assert_eq!(bipartite_components(&w), 4);
        // Mixing the permutation of a single block chains the residue classes together.
        let mixed = unit_pd(8, 4, vec![0, 0, 1, 0]);
        assert_eq!(bipartite_components(&mixed), 1);
    }

    #[test]
    fn natural_indexing_is_not_all_identical() {
        // The precondition of Section III-E: natural indexing gives non-identical k_l
        // whenever there is more than one block per block row.
        let nat = BlockPermDiagMatrix::zeros(8, 16, 4, PermutationIndexing::Natural).unwrap();
        let distinct: std::collections::HashSet<_> = nat.perms().iter().copied().collect();
        assert!(distinct.len() > 1);
    }
}
