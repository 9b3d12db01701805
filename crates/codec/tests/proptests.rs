//! Property-based round-trip and robustness tests for the wire codec.

use openflame_codec::{from_bytes, to_bytes, CodecError, Reader, Wire, Writer};
use proptest::prelude::*;

/// A representative composite message exercising nesting.
#[derive(Debug, Clone, PartialEq)]
struct Msg {
    id: u64,
    name: String,
    score: f64,
    tags: Vec<(String, String)>,
    parent: Option<i64>,
}

impl Wire for Msg {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.name.encode(w);
        self.score.encode(w);
        self.tags.encode(w);
        self.parent.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Msg {
            id: u64::decode(r)?,
            name: String::decode(r)?,
            score: f64::decode(r)?,
            tags: Vec::decode(r)?,
            parent: Option::decode(r)?,
        })
    }
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    (
        any::<u64>(),
        ".{0,40}",
        any::<f64>().prop_filter("finite", |f| f.is_finite()),
        proptest::collection::vec((".{0,10}", ".{0,10}"), 0..8),
        proptest::option::of(any::<i64>()),
    )
        .prop_map(|(id, name, score, tags, parent)| Msg {
            id,
            name,
            score,
            tags,
            parent,
        })
}

proptest! {
    #[test]
    fn u64_round_trip(v in any::<u64>()) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn i64_round_trip(v in any::<i64>()) {
        prop_assert_eq!(from_bytes::<i64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn f64_round_trip_bitwise(v in any::<f64>()) {
        let back = from_bytes::<f64>(&to_bytes(&v)).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn string_round_trip(s in ".{0,200}") {
        prop_assert_eq!(from_bytes::<String>(&to_bytes(&s.clone())).unwrap(), s);
    }

    #[test]
    fn vec_round_trip(v in proptest::collection::vec(any::<u32>(), 0..100)) {
        prop_assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn composite_message_round_trip(m in arb_msg()) {
        prop_assert_eq!(from_bytes::<Msg>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn truncation_never_panics(m in arb_msg(), cut in 0usize..64) {
        let buf = to_bytes(&m);
        let end = cut.min(buf.len());
        // Any prefix must decode cleanly or error — never panic.
        let _ = from_bytes::<Msg>(&buf[..end]);
    }

    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = from_bytes::<Msg>(&bytes);
        let _ = from_bytes::<Vec<String>>(&bytes);
        let _ = from_bytes::<(u64, String)>(&bytes);
    }

    #[test]
    fn varint_encoding_is_minimal(v in any::<u64>()) {
        let len = to_bytes(&v).len();
        let expected = if v == 0 { 1 } else { (64 - v.leading_zeros() as usize).div_ceil(7) };
        prop_assert_eq!(len, expected);
    }
}

mod framing {
    //! Robustness of the v2 stream framing (version byte, correlation
    //! ids): round-trips, pipelined sequences, and adversarial inputs —
    //! truncation, oversized length prefixes, unknown versions.

    use openflame_codec::framing::{
        read_frame, write_frame, Frame, FrameDecoder, FRAME_HEADER_LEN, FRAME_VERSION,
    };
    use openflame_codec::MAX_LENGTH;
    use proptest::prelude::*;
    use std::io;

    /// Splits `buf` into the chunk sizes dictated by `splits` (cycled;
    /// zero-length chunks allowed) — the arbitrary read boundaries a
    /// non-blocking socket hands the incremental decoder.
    fn chunks<'a>(buf: &'a [u8], splits: &[usize]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut off = 0;
        let mut i = 0;
        while off < buf.len() {
            let take = if splits.is_empty() {
                buf.len()
            } else {
                splits[i % splits.len()].min(buf.len() - off)
            };
            out.push(&buf[off..off + take]);
            off += take;
            i += 1;
            if i > buf.len() + splits.len() {
                // All-zero splits make no progress: flush the rest.
                out.push(&buf[off..]);
                break;
            }
        }
        out
    }

    proptest! {
        #[test]
        fn frame_round_trips_with_correlation(
            sender in any::<u64>(),
            correlation in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let mut buf = Vec::new();
            write_frame(&mut buf, sender, correlation, &payload).unwrap();
            prop_assert_eq!(buf.len(), FRAME_HEADER_LEN + payload.len());
            let frame = read_frame(&mut io::Cursor::new(buf)).unwrap();
            prop_assert_eq!(frame, Frame { sender, correlation, payload });
        }

        #[test]
        fn pipelined_frame_sequences_round_trip_in_order(
            frames in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
                0..10,
            ),
        ) {
            // One connection carries many frames back to back — the
            // reader must recover every (sender, correlation, payload)
            // triple at exact boundaries.
            let mut buf = Vec::new();
            for (sender, correlation, payload) in &frames {
                write_frame(&mut buf, *sender, *correlation, payload).unwrap();
            }
            let mut cursor = io::Cursor::new(buf);
            for (sender, correlation, payload) in frames {
                let frame = read_frame(&mut cursor).unwrap();
                prop_assert_eq!(frame, Frame { sender, correlation, payload });
            }
            // Clean EOF after the last frame, not trailing garbage.
            prop_assert_eq!(
                read_frame(&mut cursor).unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof
            );
        }

        #[test]
        fn truncation_anywhere_is_unexpected_eof(
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            cut_fraction in 0.0f64..1.0,
        ) {
            let mut buf = Vec::new();
            write_frame(&mut buf, 7, 9, &payload).unwrap();
            let cut = ((buf.len() as f64) * cut_fraction) as usize;
            prop_assume!(cut < buf.len());
            buf.truncate(cut);
            // A frame cut anywhere — mid-header or mid-payload — reads
            // as UnexpectedEof, never a panic or a bogus frame.
            let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }

        #[test]
        fn length_prefix_over_max_length_rejected(
            excess in 1u64..=(u32::MAX as u64 - MAX_LENGTH),
            sender in any::<u64>(),
            correlation in any::<u64>(),
        ) {
            let mut buf = vec![FRAME_VERSION];
            buf.extend_from_slice(&((MAX_LENGTH + excess) as u32).to_le_bytes());
            buf.extend_from_slice(&sender.to_le_bytes());
            buf.extend_from_slice(&correlation.to_le_bytes());
            let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn unknown_version_byte_rejected(
            version in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            prop_assume!(version != FRAME_VERSION);
            let mut buf = Vec::new();
            write_frame(&mut buf, 1, 2, &payload).unwrap();
            buf[0] = version;
            let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            prop_assert!(err.to_string().contains("version"));
        }

        #[test]
        fn random_garbage_never_yields_a_frame_payload_over_limit(
            bytes in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            // Whatever the stream contains, a successful parse never
            // reports a payload above the sanity cap.
            if let Ok(frame) = read_frame(&mut io::Cursor::new(bytes)) {
                prop_assert!((frame.payload.len() as u64) <= MAX_LENGTH);
            }
        }

        #[test]
        fn incremental_decoder_matches_blocking_reader_across_any_splits(
            frames in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..96)),
                0..8,
            ),
            splits in proptest::collection::vec(0usize..40, 1..12),
        ) {
            // The reactor feeds the incremental decoder whatever byte
            // runs the socket happens to return. However the stream is
            // split — mid-header, mid-payload, many frames in one
            // chunk — the decoded sequence must be exactly what the
            // blocking reader sees on the whole stream.
            let mut buf = Vec::new();
            for (sender, correlation, payload) in &frames {
                write_frame(&mut buf, *sender, *correlation, payload).unwrap();
            }
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            for chunk in chunks(&buf, &splits) {
                decoder.extend(chunk);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    decoded.push(frame);
                }
            }
            let expected: Vec<Frame> = frames
                .into_iter()
                .map(|(sender, correlation, payload)| Frame { sender, correlation, payload })
                .collect();
            prop_assert_eq!(decoded, expected);
            // Frame-aligned input leaves nothing buffered — the
            // decoder consumed every byte it was given.
            prop_assert_eq!(decoder.pending_bytes(), 0);
        }

        #[test]
        fn incremental_decoder_poisons_exactly_where_the_blocking_reader_errors(
            bytes in proptest::collection::vec(any::<u8>(), 0..192),
            splits in proptest::collection::vec(0usize..24, 1..8),
        ) {
            // Error parity on arbitrary (possibly corrupt) streams: the
            // incremental decoder must accept the same frame prefix as
            // the blocking reader and then fail with the same error
            // kind — regardless of how the bytes were chunked. (EOF is
            // the one divergence by construction: the decoder just
            // waits for more bytes.)
            let mut expected_frames = Vec::new();
            let mut cursor = io::Cursor::new(bytes.clone());
            let expected_err = loop {
                match read_frame(&mut cursor) {
                    Ok(frame) => expected_frames.push(frame),
                    Err(e) => break e,
                }
            };
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            let mut err = None;
            'feed: for chunk in chunks(&bytes, &splits) {
                decoder.extend(chunk);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => decoded.push(frame),
                        Ok(None) => break,
                        Err(e) => { err = Some(e); break 'feed; }
                    }
                }
            }
            prop_assert_eq!(decoded, expected_frames);
            match err {
                // A decoder error is always InvalidData — and it may
                // fire where the blocking reader reports truncation
                // instead: the decoder proves corruption from a
                // partial header (bad version byte, oversized length)
                // that `read_exact` is still waiting to complete.
                Some(e) => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    prop_assert!(matches!(
                        expected_err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ));
                }
                // No decoder error: the blocking reader must have hit
                // end-of-stream (the decoder expresses that as "give
                // me more bytes"); it must NOT have seen corruption
                // the decoder missed.
                None => prop_assert_eq!(expected_err.kind(), io::ErrorKind::UnexpectedEof),
            }
        }
    }
}

mod ack_ranges {
    //! Ranged acknowledgements carried in QuicLite `Ack` payloads: any
    //! ascending packet-number set survives encode → datagram → decode,
    //! split across as many datagrams as its ranges need, and every
    //! malformed range list is rejected whole.

    use openflame_codec::packet::{
        decode_ack_ranges, decode_packet, encode_acks, PacketType, ACK_RANGE_LEN, DATAGRAM_MTU,
        MAX_ACK_RANGES, PAYLOAD_MTU,
    };
    use proptest::prelude::*;
    use std::io;

    /// An ascending set built from a start and gaps (gap 1 extends a
    /// run), stopping where the next number would overflow `u64`.
    fn ascending(start: u64, gaps: &[u64]) -> Vec<u64> {
        let mut nos = vec![start];
        for &gap in gaps {
            match nos.last().and_then(|last| last.checked_add(gap)) {
                Some(next) => nos.push(next),
                None => break,
            }
        }
        nos
    }

    fn decode_all(datagrams: &[Vec<u8>]) -> io::Result<Vec<u64>> {
        let mut covered = Vec::new();
        for datagram in datagrams {
            let pkt = decode_packet(datagram)?;
            for range in decode_ack_ranges(pkt.packet_no, &pkt.payload)? {
                covered.extend(range.first()..=range.last());
            }
        }
        Ok(covered)
    }

    /// A valid multi-range payload: `ranges` entries of (first, count).
    fn payload(ranges: &[(u64, u32)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (first, count) in ranges {
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    proptest! {
        #[test]
        fn ascending_sets_round_trip_through_mtu_split_acks(
            start in arb_start(),
            gaps in proptest::collection::vec(1u64..4, 0..700),
            conn_id in any::<u64>(),
        ) {
            let nos = ascending(start, &gaps);
            let datagrams = encode_acks(conn_id, &nos);
            let runs = 1 + nos.windows(2).filter(|w| w[1] != w[0] + 1).count();
            prop_assert_eq!(datagrams.len(), runs.div_ceil(MAX_ACK_RANGES));
            for datagram in &datagrams {
                prop_assert!(datagram.len() <= DATAGRAM_MTU);
                let pkt = decode_packet(datagram).unwrap();
                prop_assert_eq!(pkt.ptype, PacketType::Ack);
                prop_assert_eq!(pkt.conn_id, conn_id);
                prop_assert!(pkt.payload.len() <= PAYLOAD_MTU);
                // The header names the first number the datagram acks.
                let ranges = decode_ack_ranges(pkt.packet_no, &pkt.payload).unwrap();
                prop_assert_eq!(ranges[0].first(), pkt.packet_no);
            }
            prop_assert_eq!(decode_all(&datagrams).unwrap(), nos);
        }

        #[test]
        fn ragged_payload_length_is_rejected(
            ranges in proptest::collection::vec((0u64..1_000_000, 1u32..100), 1..20),
            extra in 1usize..ACK_RANGE_LEN,
            cut in any::<bool>(),
        ) {
            let mut bytes = payload(&ranges);
            if cut {
                bytes.truncate(bytes.len() - extra);
            } else {
                bytes.extend(std::iter::repeat_n(0u8, extra));
            }
            let err = decode_ack_ranges(0, &bytes).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn zero_count_range_is_rejected(
            ranges in proptest::collection::vec((0u64..1_000_000, 1u32..100), 1..20),
            at in any::<usize>(),
        ) {
            let mut ranges = ranges;
            let at = at % ranges.len();
            ranges[at].1 = 0;
            let err = decode_ack_ranges(0, &payload(&ranges)).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn range_ending_past_u64_max_is_rejected(
            ranges in proptest::collection::vec((0u64..1_000_000, 1u32..100), 1..20),
            at in any::<usize>(),
            headroom in 0u64..1_000,
            excess in 1u32..1_000,
        ) {
            // `first + count - 1` lands `excess` numbers past u64::MAX.
            let mut ranges = ranges;
            let at = at % ranges.len();
            ranges[at] = (u64::MAX - headroom, headroom as u32 + 1 + excess);
            let err = decode_ack_ranges(0, &payload(&ranges)).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// Starts anywhere, with a third of the cases near `u64::MAX` so
    /// runs meet the top of the number space.
    fn arb_start() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u8..3, 0u64..2_000).prop_map(|(any, pick, below_max)| match pick {
            0 => u64::MAX - below_max,
            1 => below_max,
            _ => any,
        })
    }
}
