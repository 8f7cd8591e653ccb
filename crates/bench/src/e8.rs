//! E8 — "random tests satisfy the assumptions A1 and A2 per se"
//! (section 4).
//!
//! A2 requires every node of the fault-free circuit to have been charged
//! *and* discharged at least once. The experiment measures, per circuit,
//! how many uniform random patterns are needed until every net has seen
//! both a 0 and a 1 — a few dozen patterns even for skewed nets, i.e.
//! "some random patterns during a few milliseconds" at 1986 clock rates.

use dynmos_netlist::generate::{
    and_or_tree, c17_dynamic_nmos, carry_chain, domino_wide_and, single_cell_network,
};
use dynmos_netlist::{Network, PackedEvaluator};
use dynmos_protest::PatternSource;

/// Patterns needed until every net has seen both values, or `None` within
/// `budget`.
pub(crate) fn patterns_until_a2(net: &Network, seed: u64, budget: u64) -> Option<u64> {
    let n = net.primary_inputs().len();
    let mut src = PatternSource::uniform(seed, n);
    let mut ev = PackedEvaluator::new(net);
    let mut seen0 = vec![false; net.net_count()];
    let mut seen1 = vec![false; net.net_count()];
    let mut applied = 0u64;
    while applied < budget {
        let batch = src.next_batch();
        let values = ev.eval(&batch);
        for lane in 0..64u64 {
            for (i, w) in values.iter().enumerate() {
                if (w >> lane) & 1 == 1 {
                    seen1[i] = true;
                } else {
                    seen0[i] = true;
                }
            }
            applied += 1;
            let done = seen0.iter().zip(&seen1).all(|(a, b)| *a && *b);
            if done {
                return Some(applied);
            }
        }
    }
    None
}

/// The circuits measured.
pub(crate) fn circuits() -> Vec<(String, Network)> {
    vec![
        ("and-or-tree-3".into(), and_or_tree(3)),
        ("carry-chain-6".into(), carry_chain(6)),
        ("c17-dynamic".into(), c17_dynamic_nmos()),
        ("wide-and-8".into(), single_cell_network(domino_wide_and(8))),
    ]
}

/// Renders the experiment: median over several seeds.
pub(crate) fn run() -> String {
    let mut out = String::new();
    out.push_str("A2 coverage by uniform random patterns (every net charged AND discharged)\n");
    out.push_str(" circuit        nets  patterns needed (seeds 0..5)\n");
    for (name, net) in circuits() {
        let counts: Vec<String> = (0..5)
            .map(|seed| match patterns_until_a2(&net, seed, 1 << 16) {
                Some(k) => k.to_string(),
                None => "'>65536".into(),
            })
            .collect();
        out.push_str(&format!(
            " {:<13} {:>4}  {}\n",
            name,
            net.net_count(),
            counts.join(", ")
        ));
    }
    out.push_str(
        "shape: tens-to-hundreds of patterns suffice -> A1/A2 hold \"per se\" under random test\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_reached_quickly_on_all_circuits() {
        for (name, net) in circuits() {
            let k = patterns_until_a2(&net, 1, 1 << 16)
                .unwrap_or_else(|| panic!("{name} never reached A2"));
            // The wide AND's output needs the all-ones pattern: expected
            // ~2^8 = 256 patterns; everything else far less.
            assert!(k < 10_000, "{name} took {k}");
        }
    }

    #[test]
    fn skewed_nets_dominate_the_count() {
        // wide-and-8 needs ~2^8 patterns, the tree only a handful.
        let tree = patterns_until_a2(&and_or_tree(3), 7, 1 << 16).expect("tree");
        let wide =
            patterns_until_a2(&single_cell_network(domino_wide_and(8)), 7, 1 << 16).expect("wide");
        assert!(wide > tree, "wide {wide} !> tree {tree}");
    }

    #[test]
    fn deterministic_in_seed() {
        let net = c17_dynamic_nmos();
        assert_eq!(
            patterns_until_a2(&net, 3, 4096),
            patterns_until_a2(&net, 3, 4096)
        );
    }
}
