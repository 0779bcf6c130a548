//! Property tests of [`HostSet`]'s canonical form: building a set one
//! range at a time with `insert_range` (the parsers' path, with its
//! append fast paths) gives exactly the set `from_ranges` normalizes
//! from the same ranges, and both hold exactly the hosts of a per-host
//! model.

use jedule_core::{HostRange, HostSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Ranges in arbitrary order: overlapping, adjacent, empty, repeated.
fn arb_random() -> impl Strategy<Value = Vec<HostRange>> {
    proptest::collection::vec(
        (0u32..200, 0u32..20).prop_map(|(s, n)| HostRange::new(s, n)),
        0..30,
    )
}

/// Mostly ascending ranges, as parsers see them: each starts at the
/// previous end plus a gap of 0 (extend), more (append), or steps back
/// into the set (general path).
fn arb_ascending() -> impl Strategy<Value = Vec<HostRange>> {
    proptest::collection::vec((-3i64..4, 0u32..8), 0..30).prop_map(|steps| {
        let mut end = 0i64;
        steps
            .into_iter()
            .map(|(gap, nb)| {
                let start = (end + gap).max(0) as u32;
                end = end.max(i64::from(start + nb));
                HostRange::new(start, nb)
            })
            .collect()
    })
}

fn check(ranges: &[HostRange]) {
    let mut inserted = HostSet::new();
    for &r in ranges {
        inserted.insert_range(r);
    }
    let normalized = HostSet::from_ranges(ranges.iter().copied());
    prop_assert_eq!(&inserted, &normalized);

    let hosts: BTreeSet<u32> = ranges.iter().flat_map(|r| r.start..r.end()).collect();
    prop_assert_eq!(&normalized, &HostSet::from_hosts(hosts.iter().copied()));
    prop_assert_eq!(normalized.iter().collect::<BTreeSet<u32>>(), hosts);
    for w in normalized.ranges().windows(2) {
        prop_assert!(w[0].end() < w[1].start, "not coalesced: {:?}", w);
    }
    prop_assert!(normalized.ranges().iter().all(|r| r.nb > 0));
}

proptest! {
    #[test]
    fn insert_sequence_equals_from_ranges(ranges in arb_random()) {
        check(&ranges);
    }

    #[test]
    fn ascending_inserts_equal_from_ranges(ranges in arb_ascending()) {
        check(&ranges);
    }
}
