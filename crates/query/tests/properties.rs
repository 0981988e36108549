//! Property-based tests for queries, aggregation, and routing trees.

use proptest::prelude::*;

use essat_net::geometry::Area;
use essat_net::ids::NodeId;
use essat_net::topology::Topology;
use essat_query::aggregate::{AggState, AggregateOp};
use essat_query::model::{Query, QueryId};
use essat_query::round::RoundAggregator;
use essat_query::tree::RoutingTree;
use essat_sim::rng::SimRng;
use essat_sim::time::{SimDuration, SimTime};

proptest! {
    /// Merging partial state records is order-insensitive for min/max/
    /// count exactly, and for sum/avg within floating-point tolerance.
    #[test]
    fn aggregation_order_insensitive(
        readings in proptest::collection::vec(-1e6f64..1e6, 1..60),
        perm_seed in any::<u64>(),
    ) {
        let mut fwd = AggState::empty();
        for &x in &readings {
            fwd.merge(&AggState::from_reading(x));
        }
        let mut shuffled = readings.clone();
        let mut rng = SimRng::seed_from_u64(perm_seed);
        rng.shuffle(&mut shuffled);
        let mut rev = AggState::empty();
        for &x in &shuffled {
            rev.merge(&AggState::from_reading(x));
        }
        prop_assert_eq!(fwd.finish(AggregateOp::Min), rev.finish(AggregateOp::Min));
        prop_assert_eq!(fwd.finish(AggregateOp::Max), rev.finish(AggregateOp::Max));
        prop_assert_eq!(fwd.finish(AggregateOp::Count), rev.finish(AggregateOp::Count));
        let tol = 1e-9 * readings.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
        prop_assert!((fwd.finish(AggregateOp::Sum) - rev.finish(AggregateOp::Sum)).abs() <= tol);
        prop_assert!((fwd.finish(AggregateOp::Avg) - rev.finish(AggregateOp::Avg)).abs() <= tol);
    }

    /// Aggregate extrema always bracket the mean; count equals inputs.
    #[test]
    fn aggregate_invariants(readings in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut s = AggState::empty();
        for &x in &readings {
            s.merge(&AggState::from_reading(x));
        }
        prop_assert_eq!(s.count(), readings.len() as u64);
        let avg = s.finish(AggregateOp::Avg);
        prop_assert!(s.finish(AggregateOp::Min) <= avg + 1e-9);
        prop_assert!(avg <= s.finish(AggregateOp::Max) + 1e-9);
    }

    /// Round arithmetic: `round_at(round_start(k)) == k`, and round
    /// starts are strictly increasing.
    #[test]
    fn round_arithmetic_round_trips(
        period_ms in 1u64..10_000,
        phase_ms in 0u64..100_000,
        k in 0u64..10_000,
    ) {
        let q = Query::periodic(
            QueryId::new(0),
            SimDuration::from_millis(period_ms),
            SimTime::from_millis(phase_ms),
            AggregateOp::Sum,
        );
        prop_assert_eq!(q.round_at(q.round_start(k)), Some(k));
        prop_assert!(q.round_start(k + 1) > q.round_start(k));
        // rounds_until is consistent with round_start.
        let end = q.round_start(k) + SimDuration::from_millis(1);
        prop_assert_eq!(q.rounds_until(end), k + if period_ms > 1 { 0 } else { 1 });
    }

    /// Tree construction on arbitrary random topologies always satisfies
    /// the structural invariants, and ranks are bounded by levels' max.
    #[test]
    fn tree_invariants_on_random_topologies(
        seed in any::<u64>(),
        n in 1u32..80,
        range in 30.0f64..150.0,
        radius in proptest::option::of(50.0f64..400.0),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(300.0, 300.0), range, &mut rng);
        let root = topo.closest_to_center();
        let tree = RoutingTree::build(&topo, root, radius);
        tree.check_invariants();
        // Rank of root equals the maximum level among members.
        let max_level = tree
            .members()
            .iter()
            .filter_map(|&m| tree.level(m))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(tree.max_rank(), max_level);
    }

    /// Failing random non-root members repeatedly never breaks the
    /// invariants; membership shrinks monotonically.
    #[test]
    fn tree_survives_random_failures(
        seed in any::<u64>(),
        n in 3u32..50,
        kills in proptest::collection::vec(any::<u32>(), 1..10),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(250.0, 250.0), 90.0, &mut rng);
        let root = topo.closest_to_center();
        let mut tree = RoutingTree::build(&topo, root, None);
        for &kraw in &kills {
            let candidates: Vec<_> = tree
                .members()
                .iter()
                .copied()
                .filter(|&m| m != root)
                .collect();
            if candidates.is_empty() {
                break;
            }
            let victim = candidates[(kraw as usize) % candidates.len()];
            let before = tree.member_count();
            tree.fail_node(&topo, victim);
            tree.check_invariants();
            prop_assert!(tree.member_count() < before);
            prop_assert!(!tree.is_member(victim));
        }
    }

    /// Self-healing surgery under random kill / revive / degrade /
    /// re-parent scripts: the incrementally repaired tree satisfies the
    /// structural invariants after every operation and never keeps a
    /// dead member; re-adopting a current member is idempotent; and
    /// after sweeping orphan adoptions to fixpoint the member set
    /// equals the from-scratch reference — exactly the live nodes with
    /// a live path to the root.
    #[test]
    fn self_healing_script_matches_rebuild_reference(
        seed in any::<u64>(),
        n in 4u32..40,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), 0.05f64..1.0), 1..25),
    ) {
        fn quality<'a>(
            alive: &'a [bool],
            q: &'a [f64],
            n: usize,
        ) -> impl Fn(NodeId, NodeId) -> f64 + 'a {
            move |s: NodeId, d: NodeId| {
                if alive[d.index()] {
                    q[s.index() * n + d.index()]
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(250.0, 250.0), 90.0, &mut rng);
        let root = topo.closest_to_center();
        let mut tree = RoutingTree::build(&topo, root, None);
        let nn = topo.node_count();
        let mut alive = vec![true; nn];
        let mut q = vec![1.0f64; nn * nn];
        for &(op, raw, val) in &ops {
            let pick = (raw as usize) % nn;
            let node = NodeId::new(pick as u32);
            match op {
                0 => {
                    // Kill: declare the node failed and heal around it.
                    if node != root && alive[pick] {
                        alive[pick] = false;
                        if tree.is_member(node) {
                            tree.fail_node_by(&topo, node, &quality(&alive, &q, nn));
                        }
                    }
                }
                1 => {
                    // Revive: back to life, try immediate re-adoption.
                    if node != root && !alive[pick] {
                        alive[pick] = true;
                        tree.adopt_orphan(&topo, node, &quality(&alive, &q, nn));
                    }
                }
                2 => {
                    // Degrade: move one directed link's quality.
                    let tgt = ((raw >> 8) as usize) % nn;
                    q[pick * nn + tgt] = val;
                }
                _ => {
                    // Degraded-parent escape: move a member elsewhere.
                    if node != root && alive[pick] && tree.is_member(node) {
                        tree.reparent(&topo, node, &quality(&alive, &q, nn));
                    }
                }
            }
            tree.check_invariants();
            for &m in tree.members() {
                prop_assert!(alive[m.index()], "dead member {m} kept in the tree");
            }
        }
        // Idempotent re-adoption: adopting a current member returns its
        // existing parent and changes nothing.
        if let Some(&m) = tree.members().iter().find(|&&m| m != root) {
            let before = tree.clone();
            let p = tree.adopt_orphan(&topo, m, &quality(&alive, &q, nn));
            prop_assert_eq!(p, before.parent(m));
            prop_assert_eq!(&tree, &before);
        }
        // Sweep adoptions to fixpoint (an adoption can make the next
        // orphan reachable), then compare against the from-scratch
        // reference: BFS over live nodes from the root.
        loop {
            let mut adopted = false;
            for i in 0..nn {
                let node = NodeId::new(i as u32);
                if alive[i]
                    && node != root
                    && !tree.is_member(node)
                    && tree.adopt_orphan(&topo, node, &quality(&alive, &q, nn)).is_some()
                {
                    adopted = true;
                }
            }
            if !adopted {
                break;
            }
        }
        tree.check_invariants();
        let mut reach = vec![false; nn];
        reach[root.index()] = true;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for &v in topo.neighbors(u) {
                if alive[v.index()] && !reach[v.index()] {
                    reach[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        for (i, &reachable) in reach.iter().enumerate() {
            prop_assert_eq!(
                tree.is_member(NodeId::new(i as u32)),
                reachable,
                "node {} membership diverged from the rebuild reference",
                i
            );
        }
    }

    /// Random tree surgery — `fail_node`, `rejoin_node`, `reparent` and
    /// `adopt_orphan` in any order — keeps every structural invariant,
    /// including the cached height, after each step.
    #[test]
    fn tree_surgery_keeps_invariants(
        seed in any::<u64>(),
        n in 2u32..50,
        range in 40.0f64..120.0,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), 0.05f64..1.0), 1..40),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(250.0, 250.0), range, &mut rng);
        let root = topo.closest_to_center();
        let mut tree = RoutingTree::build(&topo, root, None);
        tree.check_invariants();
        for &(op, raw, q) in &ops {
            let node = NodeId::new(raw % n);
            // Directed link quality: a fixed pseudo-random score per
            // pair, scaled by the step's draw.
            let quality = |a: NodeId, b: NodeId| {
                let h = a.as_u32() as u64 * 31 + b.as_u32() as u64 * 17 + raw as u64;
                q * ((h % 7) as f64 + 1.0)
            };
            if node != root {
                match op {
                    0 if tree.is_member(node) => {
                        tree.fail_node(&topo, node);
                    }
                    1 => {
                        tree.rejoin_node(&topo, node);
                    }
                    2 if tree.is_member(node) => {
                        tree.reparent(&topo, node, &quality);
                    }
                    _ => {
                        tree.adopt_orphan(&topo, node, &quality);
                    }
                }
            }
            tree.check_invariants();
            prop_assert_eq!(tree.max_level(), tree.max_rank());
        }
    }

    /// A round aggregator seals to exactly the sum of accepted inputs,
    /// regardless of arrival order and duplicates.
    #[test]
    fn round_aggregator_accepts_each_child_once(
        children in proptest::collection::vec(0u32..10, 1..10),
        arrivals in proptest::collection::vec((0u32..10, -100f64..100.0), 0..40),
    ) {
        let kids: Vec<NodeId> = {
            let mut v: Vec<u32> = children.clone();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(NodeId::new).collect()
        };
        let mut agg = RoundAggregator::new(&kids);
        let mut expect_sum = 0.0;
        let mut seen = std::collections::BTreeSet::new();
        for &(c, val) in &arrivals {
            let child = NodeId::new(c);
            let accepted = agg.add_child(child, AggState::from_reading(val));
            let should = kids.contains(&child) && !seen.contains(&child);
            prop_assert_eq!(accepted, should);
            if should {
                seen.insert(child);
                expect_sum += val;
            }
        }
        let sealed = agg.seal();
        prop_assert!((sealed.finish(AggregateOp::Sum) - expect_sum).abs() < 1e-9);
        prop_assert_eq!(sealed.count(), seen.len() as u64);
    }
}
