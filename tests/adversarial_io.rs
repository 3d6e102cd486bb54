//! Adversarial I/O: every fixture under `tests/fixtures/adversarial/`
//! is a malformed input a hostile (or merely truncated) producer could
//! hand us. Loading one must return a typed error — never a panic, and
//! never a silently "repaired" instance.
//!
//! Each fixture is also pushed through the hardened
//! [`Partitioner::partition`] boundary where it can be wrapped into an
//! instance, proving the validation gate rejects it before any engine
//! runs.

use ppn_backend::{validate_instance, Budget, GpBackend, PartitionError, PartitionInstance};
use ppn_graph::io::{json, metis};
use ppn_graph::Constraints;
use ppn_hyper::Hypergraph;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/adversarial")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn truncated_metis_is_a_parse_error() {
    let err = metis::parse(&fixture("truncated.metis")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("expected 4 node lines"), "{msg}");
}

#[test]
fn asymmetric_metis_weight_is_a_parse_error() {
    let err = metis::parse(&fixture("asymmetric.metis")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("asymmetric weight on edge 1-2"), "{msg}");
}

#[test]
fn self_loop_metis_entry_is_a_parse_error() {
    let err = metis::parse(&fixture("selfloop.metis")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("self loop on node 2"), "{msg}");
}

#[test]
fn self_loop_graph_json_is_rejected() {
    let err = json::graph_from_json(&fixture("selfloop.graph.json")).unwrap_err();
    assert!(err.to_string().contains("self loop"), "{err}");
}

#[test]
fn duplicate_edge_graph_json_is_rejected() {
    let err = json::graph_from_json(&fixture("dup-edge.graph.json")).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn zero_weight_graph_json_is_rejected() {
    let err = json::graph_from_json(&fixture("zero-weight.graph.json")).unwrap_err();
    assert!(err.to_string().contains("strictly positive"), "{err}");
}

#[test]
fn dangling_endpoint_graph_json_is_rejected() {
    let err = json::graph_from_json(&fixture("dangling.graph.json")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('7'), "names the bad node: {msg}");
}

#[test]
fn metis_header_allocation_bomb_is_rejected_before_parsing() {
    // A header claiming a trillion nodes/edges over a two-line payload
    // must fail in O(1) on the size check, not after count-proportional
    // work (or a count-proportional allocation).
    let err = metis::parse(&fixture("bomb-header.metis")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("payload is only"), "{msg}");
}

#[test]
fn partition_k_allocation_bomb_is_rejected() {
    // k=10^12 over three nodes would make every `vec![_; k]` consumer
    // (part_sizes, part_weights, members) an 8 TB allocation.
    let err = json::partition_from_json(&fixture("bomb-k.partition.json")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("allocation bomb"), "{msg}");
}

#[test]
fn deserialized_partition_reapplies_assignment_invariants() {
    // Raw serde bypasses from_assignment's checks; the loader must
    // re-apply them (entries < k, k >= 1).
    assert!(json::partition_from_json(r#"{"k":2,"assign":[0,7]}"#).is_err());
    assert!(json::partition_from_json(r#"{"k":0,"assign":[]}"#).is_err());
}

#[test]
fn hypergraph_pin_count_bomb_is_rejected() {
    // net_off claims four billion pins; the pins array has two. The
    // offset/truncation checks fire before any pin-proportional work.
    let hg: Hypergraph = serde_json::from_str(&fixture("bomb-pins.hyper.json")).unwrap();
    let err = hg.validate().unwrap_err();
    assert!(err.contains("truncated"), "{err}");
}

#[test]
fn truncated_hypergraph_json_is_rejected_not_panicking() {
    let hg: Hypergraph = serde_json::from_str(&fixture("truncated.hyper.json")).unwrap();
    let err = hg.validate().unwrap_err();
    assert!(err.contains("truncated"), "{err}");
}

#[test]
fn non_monotone_hypergraph_offsets_are_rejected() {
    let hg: Hypergraph = serde_json::from_str(&fixture("bad-offsets.hyper.json")).unwrap();
    let err = hg.validate().unwrap_err();
    assert!(err.contains("monotone"), "{err}");
}

#[test]
fn duplicate_pin_hypergraph_is_rejected() {
    let hg: Hypergraph = serde_json::from_str(&fixture("dup-pin.hyper.json")).unwrap();
    let err = hg.validate().unwrap_err();
    assert!(err.contains("duplicate pin"), "{err}");
}

#[test]
fn corrupt_hypergraph_view_is_stopped_at_the_partition_boundary() {
    // A structurally sound graph paired with a corrupt hypergraph view:
    // validate_instance (and therefore Partitioner::partition) must
    // reject the pair before any engine dereferences the bad offsets.
    let mut g = ppn_graph::WeightedGraph::new();
    let a = g.add_node(1);
    let b = g.add_node(1);
    let c = g.add_node(1);
    g.add_edge(a, b, 1).unwrap();
    g.add_edge(b, c, 1).unwrap();
    let hg: Hypergraph = serde_json::from_str(&fixture("truncated.hyper.json")).unwrap();
    let inst = PartitionInstance::from_graph("corrupt-view", g, 2, Constraints::new(10, 10))
        .with_hypergraph(hg);
    let err = validate_instance(&inst).unwrap_err();
    assert!(
        matches!(err, PartitionError::InvalidInstance { .. }),
        "{err}"
    );
    use ppn_backend::Partitioner;
    let err = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap_err();
    assert!(
        matches!(err, PartitionError::InvalidInstance { .. }),
        "{err}"
    );
}
