//! Differential tests of the fault-cone tables against a naive reference
//! that walks readers from each gate and net.

use super::CompiledNetwork;
use crate::bench_format::parse_bench;
use crate::generate::{
    and_or_tree, array_multiplier, c17_dynamic_nmos, carry_chain, comparator, parity_tree,
    random_domino_network, ripple_adder, ripple_adder_bench_text,
};
use crate::network::{GateRef, NetId, Network, NetworkFault};

/// A cone and the primary-output indices it disturbs, both ascending.
type Cone = (Vec<u32>, Vec<u32>);

/// Cones the slow way: every set is rebuilt by a walk over reader lists,
/// with output indices found by scanning `outputs` for a net's first
/// occurrence.
struct Reference<'a> {
    net: &'a Network,
    outputs: &'a [NetId],
    /// Per net: the gates that read it, as topological positions.
    readers: Vec<Vec<u32>>,
}

impl<'a> Reference<'a> {
    fn new(net: &'a Network, outputs: &'a [NetId]) -> Self {
        let mut readers = vec![Vec::new(); net.net_count()];
        for (pos, &g) in net.topo_order().iter().enumerate() {
            for &input in &net.gates()[g.index()].inputs {
                readers[input.index()].push(pos as u32);
            }
        }
        Self {
            net,
            outputs,
            readers,
        }
    }

    fn po_index(&self, net: NetId) -> Option<u32> {
        self.outputs
            .iter()
            .position(|&po| po == net)
            .map(|i| i as u32)
    }

    /// The gates reached from `start` by following readers, and the
    /// outputs among `start` and those gates' output nets.
    fn walk(&self, start: NetId, mut cone: Vec<u32>) -> Cone {
        let mut seen = vec![false; self.net.gates().len()];
        for &p in &cone {
            seen[p as usize] = true;
        }
        let mut outs: Vec<u32> = self.po_index(start).into_iter().collect();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for &r in &self.readers[n.index()] {
                if std::mem::replace(&mut seen[r as usize], true) {
                    continue;
                }
                cone.push(r);
                let out = self.net.gates()[self.net.topo_order()[r as usize].index()].output;
                outs.extend(self.po_index(out));
                stack.push(out);
            }
        }
        cone.sort_unstable();
        outs.sort_unstable();
        outs.dedup();
        (cone, outs)
    }

    /// Gate `g`'s fanout cone, including `g`, and its reachable outputs.
    fn gate(&self, g: GateRef) -> Cone {
        let pos = self.net.topo_order().iter().position(|&t| t == g).unwrap();
        self.walk(self.net.gates()[g.index()].output, vec![pos as u32])
    }

    /// The reader cone of net `n` and the outputs forcing it disturbs.
    fn net(&self, n: NetId) -> Cone {
        self.walk(n, Vec::new())
    }
}

/// Checks every gate's and net's cone and output set in `c`, compiled
/// from `net` with output list `outputs`, against the reference.
fn check_cones(name: &str, net: &Network, c: &CompiledNetwork, outputs: &[NetId]) {
    let reference = Reference::new(net, outputs);
    for gi in 0..net.gates().len() {
        let g = GateRef(gi as u32);
        let (cone, outs) = reference.gate(g);
        assert_eq!(c.fanout_cone(g), &cone[..], "{name}: cone of gate {gi}");
        assert_eq!(
            c.reachable_outputs(g),
            &outs[..],
            "{name}: outputs of gate {gi}"
        );
    }
    for ni in 0..net.net_count() {
        let n = NetId(ni as u32);
        let (cone, outs) = reference.net(n);
        for value in [false, true] {
            let p = c.prepare(net, &NetworkFault::NetStuck(n, value));
            assert_eq!(p.cone_positions(), &cone[..], "{name}: cone of net {ni}");
            assert_eq!(p.cone_size(), cone.len(), "{name}: cone size of net {ni}");
            assert_eq!(
                p.observable_outputs(),
                &outs[..],
                "{name}: outputs of net {ni}"
            );
        }
    }
}

/// Checks `net`'s own compiled tables, then a recompile of its parts under
/// an output list that repeats every output and appends each primary
/// input twice.
fn check_network(name: &str, net: &Network) {
    check_cones(name, net, net.compiled(), net.primary_outputs());
    let mut outputs = net.primary_outputs().to_vec();
    outputs.extend_from_slice(net.primary_outputs());
    for &pi in net.primary_inputs() {
        outputs.extend([pi, pi]);
    }
    let c = CompiledNetwork::build(
        net.cells(),
        net.gates(),
        net.net_count(),
        net.topo_order(),
        net.primary_inputs(),
        &outputs,
    );
    check_cones(&format!("{name} (outputs repeated)"), net, &c, &outputs);
}

/// A primary input listed as an output, an output listed twice, and gates
/// `d` and `e` that reach no output.
const EDGE_BENCH: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
OUTPUT(a)
OUTPUT(z)
OUTPUT(y)
z = AND(a, b)
y = OR(z, c)
d = NOT(z)
e = AND(d, c)
";

#[test]
fn cones_match_reference_on_generated_networks() {
    let adder80 = parse_bench(&ripple_adder_bench_text(80)).unwrap();
    // 81 outputs: the output bitset spans two words.
    assert_eq!(adder80.primary_outputs().len(), 81);
    let nets = [
        ("c17_dynamic_nmos", c17_dynamic_nmos()),
        ("ripple_adder(16)", ripple_adder(16)),
        ("parsed ripple_adder(80)", adder80),
        ("array_multiplier(6)", array_multiplier(6)),
        ("array_multiplier(10)", array_multiplier(10)),
        ("carry_chain(8)", carry_chain(8)),
        ("and_or_tree(4)", and_or_tree(4)),
        ("parity_tree(4)", parity_tree(4)),
        ("comparator(6)", comparator(6)),
    ];
    for (name, net) in &nets {
        check_network(name, net);
    }
}

#[test]
fn cones_match_reference_on_random_networks() {
    for seed in 0..24 {
        let net = random_domino_network(seed, 3 + seed as usize % 4, 4 + seed as usize);
        check_network(&format!("random seed {seed}"), &net);
    }
}

#[test]
fn cones_match_reference_on_edge_cases() {
    let net = parse_bench(EDGE_BENCH).unwrap();
    check_network("edge bench", &net);
    let name = |ni: usize| net.net_name(NetId(ni as u32)).to_owned();
    let by_name = |s: &str| NetId((0..net.net_count()).find(|&i| name(i) == s).unwrap() as u32);
    // The repeated `z` is listed once: outputs are z, a, y.
    assert_eq!(
        net.primary_outputs(),
        &[by_name("z"), by_name("a"), by_name("y")]
    );
    let c = net.compiled();
    for dead in ["d", "e"] {
        let g = net.driver(by_name(dead)).unwrap();
        assert!(c.reachable_outputs(g).is_empty(), "gate {dead}");
        let p = net.prepare_fault(&NetworkFault::NetStuck(by_name(dead), false));
        assert!(p.observable_outputs().is_empty(), "net {dead}");
    }
    // Forcing the input `a` disturbs itself (output 1) and, through z and
    // y, outputs 0 and 2.
    let p = net.prepare_fault(&NetworkFault::NetStuck(by_name("a"), true));
    assert_eq!(p.observable_outputs(), &[0, 1, 2]);
}
