//! Property-based tests for the shared label algebras: the strictly-
//! between constructions are the heart of every persistent scheme, so
//! they get adversarial random coverage here — on the hermetic
//! `xupd-testkit` harness (256 cases per property, seed-replayable).

use xupd_testkit::prop::{
    any_u64, bools, from_slice, ints, map, mutate_bytes, u64s_from, vecs, Gen,
};
use xupd_testkit::rng::TestRng;
use xupd_testkit::{prop_assert, prop_assert_eq, prop_assume, props};

use xupd_labelcore::bitstring::{between as bbetween, middle, BitString};
use xupd_labelcore::quaternary::{bulk_cdqs, bulk_qed, qbetween, qinsert, QCode};
use xupd_labelcore::varint;
use xupd_labelcore::vectorcode::{bulk_vector, VectorCode};
use xupd_labelcore::{biguint::BigUint, SchemeStats};

// ---------- generators ----------------------------------------------

/// A valid ImprovedBinary code: a bitstring ending in 1.
fn arb_bin_code() -> impl Gen<Value = BitString> {
    map(vecs(bools(), 0, 16), |bits| {
        let mut b = BitString::empty();
        for bit in bits {
            b.push(u8::from(bit));
        }
        b.push(1);
        b
    })
}

/// A valid QED code: digits in {1,2,3}, ending in 2 or 3.
fn arb_qcode() -> impl Gen<Value = QCode> {
    map(
        (vecs(ints(1u8..4), 0, 12), from_slice(&[2u8, 3u8])),
        |(mut digits, last)| {
            digits.push(last);
            let s: String = digits.iter().map(|d| d.to_string()).collect();
            QCode::from_digits(&s)
        },
    )
}

/// 64 left/right descent directions for the exhaustion chains.
fn arb_dirs() -> impl Gen<Value = Vec<bool>> {
    vecs(bools(), 64, 64)
}

// ---------- binary middle codes --------------------------------------

props! {
    fn binary_middle_is_strictly_between(a in arb_bin_code(), b in arb_bin_code()) {
        prop_assume!(a != b);
        let (l, r) = if a < b { (a, b) } else { (b, a) };
        let m = middle(&l, &r);
        prop_assert!(l < m, "{l} < {m}");
        prop_assert!(m < r, "{m} < {r}");
        prop_assert_eq!(m.last(), Some(1));
    }

    fn binary_between_with_open_bounds(a in arb_bin_code()) {
        let after = bbetween(Some(&a), None);
        prop_assert!(a < after);
        let before = bbetween(None, Some(&a));
        prop_assert!(before < a);
        prop_assert_eq!(after.last(), Some(1));
        prop_assert_eq!(before.last(), Some(1));
    }

    /// Chains of middles never get stuck: 64 nested splits always succeed.
    fn binary_middle_chain_never_exhausts(a in arb_bin_code(), b in arb_bin_code(), dirs in arb_dirs()) {
        prop_assume!(a != b);
        let (mut l, mut r) = if a < b { (a, b) } else { (b, a) };
        for go_left in dirs {
            let m = middle(&l, &r);
            prop_assert!(l < m && m < r);
            if go_left { r = m; } else { l = m; }
        }
    }
}

// ---------- quaternary codes ------------------------------------------

props! {
    fn qbetween_is_strictly_between(a in arb_qcode(), b in arb_qcode()) {
        prop_assume!(a != b);
        let (l, r) = if a < b { (a, b) } else { (b, a) };
        let m = qbetween(&l, &r);
        prop_assert!(l < m, "{l} < {m}");
        prop_assert!(m < r, "{m} < {r}");
        prop_assert!(m.is_valid_end(), "{m}");
    }

    fn qinsert_open_bounds(a in arb_qcode()) {
        let succ = qinsert(Some(&a), None);
        let pred = qinsert(None, Some(&a));
        prop_assert!(pred < a && a < succ);
        prop_assert!(succ.is_valid_end() && pred.is_valid_end());
    }

    fn qbetween_chain_never_exhausts(a in arb_qcode(), b in arb_qcode(), dirs in arb_dirs()) {
        prop_assume!(a != b);
        let (mut l, mut r) = if a < b { (a, b) } else { (b, a) };
        for go_left in dirs {
            let m = qbetween(&l, &r);
            prop_assert!(l < m && m < r);
            if go_left { r = m; } else { l = m; }
        }
    }

    fn bulk_generators_sorted_unique(n in ints(0usize..400)) {
        let mut stats = SchemeStats::default();
        for codes in [bulk_qed(n, &mut stats), bulk_cdqs(n, &mut stats)] {
            prop_assert_eq!(codes.len(), n);
            for w in codes.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for c in &codes {
                prop_assert!(c.is_valid_end());
                prop_assert!(c.digits().iter().all(|&d| (1..=3).contains(&d)),
                    "separator symbol 0 never appears");
            }
        }
    }

    /// CDQS bulk is never larger than QED bulk at realistic fanouts.
    fn cdqs_bulk_no_larger_than_qed(n in ints(30usize..400)) {
        let mut s = SchemeStats::default();
        let qed: u64 = bulk_qed(n, &mut s).iter().map(|c| c.size_bits()).sum();
        let cdqs: u64 = bulk_cdqs(n, &mut s).iter().map(|c| c.size_bits()).sum();
        prop_assert!(cdqs <= qed, "n={n}: {cdqs} > {qed}");
    }
}

// ---------- vector codes ----------------------------------------------

props! {
    fn mediant_strictly_between(ax in ints(1u64..1000), ay in ints(0u64..1000), bx in ints(0u64..1000), by in ints(1u64..1000)) {
        let a = VectorCode::new(ax, ay);
        let b = VectorCode::new(bx, by);
        prop_assume!(a.cmp_gradient(&b) == std::cmp::Ordering::Less);
        let m = a.mediant(&b).expect("small components");
        prop_assert_eq!(a.cmp_gradient(&m), std::cmp::Ordering::Less);
        prop_assert_eq!(m.cmp_gradient(&b), std::cmp::Ordering::Less);
    }

    fn gradient_order_is_total_and_antisymmetric(ax in ints(1u64..10_000), ay in ints(0u64..10_000), bx in ints(1u64..10_000), by in ints(0u64..10_000)) {
        let a = VectorCode::new(ax, ay);
        let b = VectorCode::new(bx, by);
        let ab = a.cmp_gradient(&b);
        let ba = b.cmp_gradient(&a);
        prop_assert_eq!(ab, ba.reverse());
    }

    fn bulk_vector_sorted(n in ints(0usize..200)) {
        let mut rc = 0;
        let codes = bulk_vector(n, &mut rc);
        for w in codes.windows(2) {
            prop_assert_eq!(w[0].cmp_gradient(&w[1]), std::cmp::Ordering::Less);
        }
    }
}

// ---------- varint -----------------------------------------------------

props! {
    fn varint_round_trip(v in any_u64()) {
        let mut buf = xupd_labelcore::SmallBuf::new();
        varint::encode(v, &mut buf);
        let (back, used) = varint::decode(&buf).expect("well-formed");
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
        // the size-model schedule never undercounts the wire bytes
        prop_assert!(buf.len() as u32 <= varint::encoded_len(v));
    }

    fn varint_streams_self_delimit(vs in vecs(any_u64(), 1, 19)) {
        let mut buf = xupd_labelcore::SmallBuf::new();
        for &v in &vs {
            varint::encode(v, &mut buf);
        }
        let mut off = 0;
        for &v in &vs {
            let (back, used) = varint::decode(&buf[off..]).expect("well-formed");
            prop_assert_eq!(back, v);
            off += used;
        }
        prop_assert_eq!(off, buf.len());
    }

    /// Hostile bytes: `decode` never panics, and accepts only what
    /// `encode` writes, on mutated encodings and on random bytes that
    /// are mostly continuation bytes (so runs reach the tenth byte).
    fn varint_decode_accepts_only_encoded_bytes(
        v in any_u64(),
        edits in vecs(any_u64(), 1, 4),
        noise in vecs(any_u64(), 0, 12),
    ) {
        let mut buf = xupd_labelcore::SmallBuf::new();
        varint::encode(v, &mut buf);
        let mut mutated = buf.to_vec();
        for e in edits {
            mutate_bytes(&mut mutated, e);
        }
        let random: Vec<u8> = noise
            .iter()
            .map(|&x| x as u8 | if x >> 60 == 0 { 0 } else { 0x80 })
            .collect();
        for bytes in [mutated, random] {
            if let Some((back, n)) = varint::decode(&bytes) {
                let mut again = xupd_labelcore::SmallBuf::new();
                varint::encode(back, &mut again);
                prop_assert_eq!(&again[..], &bytes[..n]);
            }
        }
    }
}

// ---------- biguint vs u128 oracle -------------------------------------

props! {
    fn biguint_mul_small_matches_u128(a in any_u64(), b in any_u64()) {
        let prod = BigUint::from_u64(a).mul_small(b);
        prop_assert_eq!(prod.to_string(), (u128::from(a) * u128::from(b)).to_string());
    }

    fn biguint_divrem_matches_u128(a in any_u64(), b in u64s_from(1)) {
        let (q, r) = BigUint::from_u64(a).divrem(&BigUint::from_u64(b));
        prop_assert_eq!(q.to_string(), (a / b).to_string());
        prop_assert_eq!(r.to_string(), (a % b).to_string());
    }

    fn biguint_add_sub_round_trip(a in any_u64(), b in any_u64()) {
        let big = BigUint::from_u64(a).add(&BigUint::from_u64(b));
        prop_assert_eq!(big.checked_sub(&BigUint::from_u64(b)).unwrap(), BigUint::from_u64(a));
    }

    fn biguint_divisibility(a in ints(1u64..100_000), b in ints(1u64..100_000)) {
        let prod = BigUint::from_u64(a).mul_small(b);
        prop_assert!(prod.is_multiple_of(&BigUint::from_u64(a)));
        prop_assert!(prod.is_multiple_of(&BigUint::from_u64(b)));
    }

    fn biguint_rem_u64_matches(a in any_u64(), b in any_u64(), m in u64s_from(1)) {
        let big = BigUint::from_u64(a).mul_small(b);
        let expect = ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64;
        prop_assert_eq!(big.rem_u64(m), expect);
    }
}

// ---------- the generators themselves are deterministic ----------------

#[test]
fn generators_are_seed_replayable() {
    let gen = (arb_bin_code(), arb_qcode());
    let mut a = TestRng::seed_from_u64(11);
    let mut b = TestRng::seed_from_u64(11);
    for _ in 0..64 {
        assert_eq!(gen.generate(&mut a), gen.generate(&mut b));
    }
}
