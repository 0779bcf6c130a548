//! Hostile-input property tests of the HTTP head parser: a pipelined
//! byte stream yields the same heads however the socket splits it, the
//! head/query parsers never panic on arbitrary bytes, and the head cap
//! trips exactly at [`MAX_HEAD`].

use jedule_serve::http::{decode_query, parse_head, parse_query, RecvBuf, MAX_HEAD};
use proptest::prelude::*;

/// Bytes drawn mostly from the characters that steer the parser — head
/// terminators, escapes, separators, invalid UTF-8 lead bytes — plus any
/// byte at all.
fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    const STEER: &[u8] = b"\r\n\r\n%%+=&? /GET HTTP/1.1aF9z\xff\xc3\x80";
    let byte = prop_oneof![(0usize..STEER.len()).prop_map(|i| STEER[i]), any::<u8>(),];
    proptest::collection::vec(byte, 0..max)
}

/// Drains every complete head currently buffered.
fn drain(rb: &mut RecvBuf, heads: &mut Vec<Vec<u8>>) {
    while let Some(head) = rb.take_head() {
        heads.push(head);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Split points change how many reads deliver the stream, never which
    /// heads come out of it or what stays buffered.
    #[test]
    fn split_stream_yields_the_same_heads(
        stream in arb_bytes(300),
        cuts in proptest::collection::vec(0usize..300, 0..12),
    ) {
        let mut whole = RecvBuf::new();
        let mut want = Vec::new();
        whole.extend(&stream);
        drain(&mut whole, &mut want);

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(stream.len())).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut split = RecvBuf::new();
        let mut got = Vec::new();
        let mut at = 0;
        for cut in cuts {
            split.extend(&stream[at..cut]);
            at = cut;
            // The event loop polls the cap between reads; that scan must
            // not disturb the heads either.
            let _ = split.over_cap();
            drain(&mut split, &mut got);
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(split.len(), whole.len());
    }

    /// Arbitrary bytes — truncated `%` escapes, escapes of invalid UTF-8,
    /// raw invalid UTF-8 — are rejected or decoded, never a panic.
    #[test]
    fn parsers_never_panic(bytes in arb_bytes(120)) {
        let _ = parse_head(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_query(&text);
        let decoded = decode_query(&text);
        // Each escape or plain byte decodes to at most one byte; lossy
        // replacement then spends at most 3 bytes per invalid byte.
        prop_assert!(decoded.len() <= 3 * text.len());
    }
}

#[test]
fn truncated_escapes_pass_through() {
    for raw in ["%", "%4", "a%", "a%4", "%%", "%g1", "%4g"] {
        assert_eq!(decode_query(raw), raw);
    }
    assert_eq!(decode_query("%41%4"), "A%4");
    // An escaped invalid UTF-8 byte decodes lossily.
    assert_eq!(decode_query("%ff"), "\u{fffd}");
    let q = parse_query("a=%&%=b&c=%e2%82");
    assert_eq!(q[0], ("a".to_string(), "%".to_string()));
    assert_eq!(q[1], ("%".to_string(), "b".to_string()));
    assert_eq!(q[2].0, "c");
}

/// A head without a terminator of `len` bytes.
fn unterminated(len: usize) -> Vec<u8> {
    let mut head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(len, b'a');
    head
}

#[test]
fn over_cap_trips_exactly_at_max_head() {
    let mut rb = RecvBuf::new();
    rb.extend(&unterminated(MAX_HEAD - 1));
    assert!(!rb.over_cap());
    let mut rb = RecvBuf::new();
    rb.extend(&unterminated(MAX_HEAD));
    assert!(rb.over_cap());
    let mut rb = RecvBuf::new();
    rb.extend(&unterminated(MAX_HEAD + 1));
    assert!(rb.over_cap());
}

#[test]
fn complete_head_at_the_cap_is_not_over_it() {
    // A head whose terminator ends exactly at byte MAX_HEAD is complete
    // and parses; one byte more and the terminator lies past the cap.
    for (len, over) in [(MAX_HEAD, false), (MAX_HEAD + 1, true)] {
        let mut head = unterminated(len - 4);
        head.extend_from_slice(b"\r\n\r\n");
        assert_eq!(head.len(), len);
        let mut rb = RecvBuf::new();
        rb.extend(&head[..MAX_HEAD]);
        assert_eq!(rb.over_cap(), over, "len {len}");
        if !over {
            let got = rb.take_head().expect("complete head");
            assert_eq!(parse_head(&got).unwrap().path, "/");
        }
    }
}
