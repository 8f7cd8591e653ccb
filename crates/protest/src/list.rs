//! Network-level fault lists from cell fault libraries.
//!
//! PROTEST's variable fault model: "for pull-down and dynamic nMOS and for
//! domino CMOS the presented models are used; for bipolar and static CMOS
//! we use the common stuck-at fault model." Each cell's [`FaultLibrary`]
//! already collapses equivalent faults; the network fault list contains
//! one entry per (gate, class) plus the primary-input stuck-ats. A library
//! is built once per distinct cell of the network, not once per gate.
//!
//! [`FaultLibrary`]: dynmos_core::FaultLibrary

use dynmos_core::FaultLibrary;
use dynmos_netlist::{GateRef, Network, NetworkFault};

/// One entry of a network fault list.
#[derive(Debug, Clone)]
pub struct FaultEntry {
    /// Human-readable label, e.g. `g3/class5[c open]` or `pi2/s-a-1`.
    pub label: String,
    /// The injectable network fault.
    pub fault: NetworkFault,
    /// `true` if every physical fault in the class needs at-speed testing.
    pub at_speed_only: bool,
}

/// Builds the network fault list: per gate, one entry per class of its
/// cell's paper-universe fault library (built once per distinct cell);
/// plus stuck-at-0/1 on every primary input.
///
/// Timing-only faults (the paper's `CMOS-1`) have no functional entry —
/// they cannot be put on a *logical* fault list at all; count them via
/// [`FaultLibrary::timing_only`] when reporting.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::{fig9_cell, single_cell_network};
/// use dynmos_protest::network_fault_list;
///
/// let net = single_cell_network(fig9_cell());
/// let list = network_fault_list(&net);
/// // 10 classes + 5 inputs x 2 polarities
/// assert_eq!(list.len(), 20);
/// ```
pub fn network_fault_list(net: &Network) -> Vec<FaultEntry> {
    let libraries: Vec<FaultLibrary> = net.cells().iter().map(FaultLibrary::generate).collect();
    network_fault_list_from(net, &libraries)
}

/// [`network_fault_list`] from libraries already built: `libraries[i]` is
/// the library of `net.cells()[i]`. The entries come from the libraries
/// as given, so pass paper-universe libraries (or restrict them with
/// [`FaultLibrary::restrict`]) for the list `network_fault_list` builds.
///
/// # Panics
///
/// Panics if there is not one library per cell.
pub fn network_fault_list_from(net: &Network, libraries: &[FaultLibrary]) -> Vec<FaultEntry> {
    assert_eq!(
        libraries.len(),
        net.cells().len(),
        "one fault library per cell"
    );
    let mut out = Vec::new();
    // Primary-input stuck-ats.
    for (k, &pi) in net.primary_inputs().iter().enumerate() {
        for value in [false, true] {
            out.push(FaultEntry {
                label: format!("pi{k}({})/s-a-{}", net.net_name(pi), u8::from(value)),
                fault: NetworkFault::NetStuck(pi, value),
                at_speed_only: false,
            });
        }
    }
    // Per-gate library classes.
    for (gi, inst) in net.gates().iter().enumerate() {
        let g = GateRef(gi as u32);
        let lib = &libraries[inst.cell];
        for class in lib.classes() {
            let first = class.faults[0].display(lib.vars()).to_string();
            out.push(FaultEntry {
                label: format!("{g}/class{}[{}]", class.id, first),
                fault: NetworkFault::GateFunction(g, class.function.clone()),
                at_speed_only: class.at_speed_only,
            });
        }
    }
    out
}

/// Builds the classic single-stuck-at fault list: stuck-at-0/1 on every
/// net (primary inputs and gate outputs alike), with no per-cell fault
/// library generation.
///
/// This is the fault model of the ISCAS benchmark tradition and the right
/// list for the large generated circuits
/// ([`dynmos_netlist::generate::ripple_adder`] and friends), where
/// running switch-level library extraction per gate would dominate the
/// experiment being measured.
pub fn stuck_fault_list(net: &Network) -> Vec<FaultEntry> {
    let mut out = Vec::with_capacity(net.net_count() * 2);
    for net_idx in 0..net.net_count() {
        let id = dynmos_netlist::NetId(net_idx as u32);
        for value in [false, true] {
            out.push(FaultEntry {
                label: format!("{}/s-a-{}", net.net_name(id), u8::from(value)),
                fault: NetworkFault::NetStuck(id, value),
                at_speed_only: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos_netlist::generate::{
        and_or_tree, c17_dynamic_nmos, carry_chain, fig9_cell, single_cell_network,
    };

    /// The gate entries as built before libraries were shared: one
    /// library generated per gate.
    fn per_gate_entries(net: &Network) -> Vec<(String, NetworkFault, bool)> {
        let mut out = Vec::new();
        for gi in 0..net.gates().len() {
            let g = GateRef(gi as u32);
            let lib = FaultLibrary::generate(net.cell_of(g));
            for class in lib.classes() {
                let first = class.faults[0].display(lib.vars()).to_string();
                out.push((
                    format!("{g}/class{}[{}]", class.id, first),
                    NetworkFault::GateFunction(g, class.function.clone()),
                    class.at_speed_only,
                ));
            }
        }
        out
    }

    #[test]
    fn one_library_per_cell_matches_one_per_gate() {
        for net in [c17_dynamic_nmos(), carry_chain(16), and_or_tree(3)] {
            assert!(net.cells().len() < net.gates().len(), "cells are shared");
            let list = network_fault_list(&net);
            let pis = 2 * net.primary_inputs().len();
            let gates: Vec<(String, NetworkFault, bool)> = list[pis..]
                .iter()
                .map(|e| (e.label.clone(), e.fault.clone(), e.at_speed_only))
                .collect();
            assert_eq!(gates, per_gate_entries(&net));
        }
    }

    #[test]
    fn fig9_network_list_counts() {
        let net = single_cell_network(fig9_cell());
        let list = network_fault_list(&net);
        assert_eq!(list.len(), 10 + 10);
        assert!(list.iter().any(|e| e.label.contains("s-a-0")));
        assert!(list.iter().any(|e| e.label.contains("class9")));
    }

    #[test]
    fn and_or_tree_list() {
        let net = and_or_tree(2); // 3 gates x (2-input domino AND/OR classes) + 8 PI faults
        let list = network_fault_list(&net);
        // Each and2/or2 domino cell: faults a closed/open, b closed/open,
        // CMOS-2,3,4 -> classes: and2: a closed->b, a open->0(with CMOS-2/3),
        // b closed->a, b open->0?? a open gives 0? and2: T=a*b. a open ->
        // 0; b open -> 0; CMOS-2/3 -> 0: all merge. a closed -> b;
        // b closed -> a; CMOS-4 -> 1. Classes: {b, a, 0, 1} = 4.
        // or2: a open->b, b open->a, a closed->1 (+CMOS-4), b closed->1,
        // CMOS-2/3->0. Classes: {b, a, 1, 0} = 4.
        let gate_entries = list.iter().filter(|e| !e.label.starts_with("pi")).count();
        assert_eq!(gate_entries, 3 * 4);
        let pi_entries = list.iter().filter(|e| e.label.starts_with("pi")).count();
        assert_eq!(pi_entries, 8);
    }

    #[test]
    fn stuck_list_covers_every_net_twice() {
        let net = c17_dynamic_nmos();
        let list = stuck_fault_list(&net);
        assert_eq!(list.len(), net.net_count() * 2);
        let mut labels: Vec<&str> = list.iter().map(|e| e.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), list.len(), "labels must be unique");
        assert!(list
            .iter()
            .all(|e| matches!(e.fault, NetworkFault::NetStuck(_, _))));
    }

    #[test]
    fn labels_are_unique() {
        let net = c17_dynamic_nmos();
        let list = network_fault_list(&net);
        let mut labels: Vec<&str> = list.iter().map(|e| e.label.as_str()).collect();
        let before = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), before);
    }

    #[test]
    fn at_speed_flag_only_on_pure_at_speed_classes() {
        let net = single_cell_network(fig9_cell());
        let list = network_fault_list(&net);
        // Class 9 contains CMOS-2 (functional), so not at_speed_only.
        for e in &list {
            if e.label.contains("class9") {
                assert!(!e.at_speed_only);
            }
        }
    }
}
