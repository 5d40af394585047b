//! Property-based tests: the domain-wall arithmetic structures agree with
//! host integer arithmetic for all inputs.

use dw_logic::{
    AdderTree, CircleAdder, Duplicator, DuplicatorBank, GateTally, Multiplier, RippleCarryAdder,
};
use proptest::prelude::*;

proptest! {
    /// The 8-bit ripple adder matches `u8` wrapping addition.
    #[test]
    fn ripple_adder_matches_u8(a in 0u64..256, b in 0u64..256, cin in any::<bool>()) {
        let adder = RippleCarryAdder::new(8);
        let mut t = GateTally::new();
        let (sum, carry) = adder.add(a, b, cin, &mut t);
        let full = a + b + cin as u64;
        prop_assert_eq!(sum, full & 0xFF);
        prop_assert_eq!(carry, full > 0xFF);
    }

    /// Wider adders match at 16 bits too.
    #[test]
    fn ripple_adder_matches_u16(a in 0u64..65536, b in 0u64..65536) {
        let adder = RippleCarryAdder::new(16);
        let mut t = GateTally::new();
        let (sum, carry) = adder.add(a, b, false, &mut t);
        prop_assert_eq!(sum, (a + b) & 0xFFFF);
        prop_assert_eq!(carry, a + b > 0xFFFF);
    }

    /// The adder tree equals the wrapping sum of its operands.
    #[test]
    fn adder_tree_matches_sum(xs in proptest::collection::vec(0u64..65536, 0..20)) {
        let tree = AdderTree::new(16);
        let mut t = GateTally::new();
        let expect = xs.iter().sum::<u64>() & 0xFFFF;
        prop_assert_eq!(tree.sum(&xs, &mut t), expect);
    }

    /// The structural multiplier equals `*` for all 8-bit operands.
    #[test]
    fn multiplier_matches_u8(a in 0u64..256, b in 0u64..256) {
        let m = Multiplier::new(8);
        let mut t = GateTally::new();
        prop_assert_eq!(m.multiply(a, b, &mut t), a * b);
    }

    /// ... and for 12-bit operands.
    #[test]
    fn multiplier_matches_12bit(a in 0u64..4096, b in 0u64..4096) {
        let m = Multiplier::new(12);
        let mut t = GateTally::new();
        prop_assert_eq!(m.multiply(a, b, &mut t), a * b);
    }

    /// Duplication is the identity on both branches.
    #[test]
    fn duplicator_is_identity(word in 0u64..256, n in 1usize..16) {
        let mut dup = Duplicator::new(8);
        let mut t = GateTally::new();
        for _ in 0..n {
            let (orig, replica) = dup.duplicate(word, &mut t);
            prop_assert_eq!(orig, word);
            prop_assert_eq!(replica, word);
        }
        prop_assert_eq!(dup.duplications(), n as u64);
    }

    /// A duplicator bank produces exactly n identical replicas with the
    /// documented cycle cost.
    #[test]
    fn bank_replication(word in 0u64..256, n in 0usize..32, d in 1u32..5) {
        let mut bank = DuplicatorBank::new(d, 8);
        let mut t = GateTally::new();
        let (replicas, cycles) = bank.replicate(word, n, &mut t);
        prop_assert_eq!(replicas.len(), n);
        prop_assert!(replicas.iter().all(|&r| r == word));
        if n == 0 {
            prop_assert_eq!(cycles, 0);
        } else {
            prop_assert_eq!(cycles, 4 + (n as u64).div_ceil(d as u64) - 1);
        }
    }

    /// The circle adder equals a running wrapping sum.
    #[test]
    fn circle_adder_matches_running_sum(xs in proptest::collection::vec(0u64..1_000_000, 0..50)) {
        let mut acc = CircleAdder::new(32);
        let mut t = GateTally::new();
        let mut expect: u64 = 0;
        for &x in &xs {
            expect = (expect + x) & 0xFFFF_FFFF;
            acc.accumulate(x, &mut t);
        }
        prop_assert_eq!(acc.peek(), expect);
    }

    /// A full dot product through the structural datapath (duplicator →
    /// multiplier → circle adder) equals the host-side dot product.
    #[test]
    fn structural_dot_product_matches_reference(
        pairs in proptest::collection::vec((0u64..256, 0u64..256), 1..32),
    ) {
        let mut bank = DuplicatorBank::new(2, 8);
        let mult = Multiplier::new(8);
        let mut acc = CircleAdder::new(32);
        let mut t = GateTally::new();
        for &(a, b) in &pairs {
            let (replicas, _) = bank.replicate(a, 8, &mut t);
            let pps = mult.partial_products(&replicas, b, &mut t);
            let tree = AdderTree::new(16);
            let product = tree.sum(&pps, &mut t);
            acc.accumulate(product, &mut t);
        }
        let expect: u64 = pairs.iter().map(|&(a, b)| a * b).sum::<u64>() & 0xFFFF_FFFF;
        prop_assert_eq!(acc.peek(), expect);
    }

    /// Differential: the plane datapath of `multiply_many` equals per-pair
    /// `multiply` in results and gate tally for arbitrary operand streams
    /// and widths. The length range crosses both the 64-lane word and the
    /// 512-lane word-group boundary so ragged tails of each granularity are
    /// exercised, and operands carry bits above the width.
    #[test]
    fn multiply_many_matches_scalar_stream(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..600),
        width in 1u32..=16,
    ) {
        let m = Multiplier::new(width);
        let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
        let mut tw = GateTally::new();
        let products = m.multiply_many(&a, &b, &mut tw);
        let mut ts = GateTally::new();
        for (i, &(x, y)) in pairs.iter().enumerate() {
            prop_assert_eq!(products[i], m.multiply(x, y, &mut ts));
        }
        prop_assert_eq!(&tw, &ts);
    }

    /// Differential: bulk circle accumulation equals serial accumulation in
    /// final value, unit state, and tally for any width and stream.
    #[test]
    fn accumulate_many_matches_serial_stream(
        xs in proptest::collection::vec(any::<u64>(), 0..60),
        width in 1u32..=63,
    ) {
        let mut bulk = CircleAdder::new(width);
        let mut serial = CircleAdder::new(width);
        let mut tb = GateTally::new();
        let mut ts = GateTally::new();
        let rb = bulk.accumulate_many(&xs, &mut tb);
        let mut rs = 0;
        for &x in &xs {
            rs = serial.accumulate(x, &mut ts);
        }
        if !xs.is_empty() {
            prop_assert_eq!(rb, rs);
        }
        prop_assert_eq!(bulk, serial);
        prop_assert_eq!(tb, ts);
    }

    /// Differential: bulk bank replication equals serial replication in unit
    /// state, tally, and cycle cost.
    #[test]
    fn replicate_bulk_matches_serial_calls(
        n in 0usize..20,
        calls in 0u64..5,
        d in 1u32..5,
        word in 0u64..256,
    ) {
        let mut bulk = DuplicatorBank::new(d, 8);
        let mut serial = DuplicatorBank::new(d, 8);
        let mut tb = GateTally::new();
        let mut ts = GateTally::new();
        let cycles_bulk = bulk.replicate_bulk(n, calls, &mut tb);
        let mut cycles_serial = serial.replicate_cycles(n);
        for _ in 0..calls {
            let (_, c) = serial.replicate(word, n, &mut ts);
            cycles_serial = c;
        }
        prop_assert_eq!(bulk, serial);
        prop_assert_eq!(tb, ts);
        prop_assert_eq!(cycles_bulk, cycles_serial);
    }
}
