//! Fuzz-shaped property tests of the wire protocol: the decoder must be
//! *total* — every byte sequence either parses or yields a typed
//! [`WireError`], never a panic or an out-of-bounds slice.
//!
//! Deterministic (seeded `forms-rng`), so a failure is a permanent
//! reproduction, not a flake.

use forms_net::protocol::{decode, encode_request_into, read_frame, HEADER_LEN, MAX_PAYLOAD};
use forms_net::{Frame, WireError, WireStatus};
use forms_rng::{Rng, StdRng};

/// Draws one well-formed frame of an arbitrary kind.
fn arbitrary_frame(rng: &mut StdRng) -> Frame {
    let id: u64 = rng.gen();
    match rng.gen_range(0u8..5) {
        0 => Frame::Request {
            id,
            deadline_us: rng.gen_range(0u64..2_000_000),
            input: (0..rng.gen_range(0usize..48))
                .map(|_| rng.gen_range(-4.0f32..4.0))
                .collect(),
        },
        1 => Frame::Response {
            id,
            latency_us: rng.gen_range(0u64..10_000_000),
            output: (0..rng.gen_range(0usize..48))
                .map(|_| rng.gen_range(-4.0f32..4.0))
                .collect(),
        },
        2 => Frame::Error {
            id,
            status: WireStatus::from_code(rng.gen_range(1u8..8)).unwrap(),
            expected: 0,
            got: 0,
        },
        3 => Frame::TelemetryRequest { id },
        _ => Frame::Telemetry {
            id,
            json: "{\n  \"completed\": 1,\n  \"plan\": \"µs→p99\"\n}"
                .chars()
                .take(rng.gen_range(0usize..30))
                .collect(),
        },
    }
}

/// `decode` on mutated frames: typed errors or re-decodable frames only.
/// Slice decoding is pure, so "no panic and in-bounds output" is the
/// whole safety contract.
#[test]
fn arbitrary_byte_mutations_never_panic_the_decoder() {
    let mut rng = StdRng::seed_from_u64(0xF0_22_B1);
    for _ in 0..2_000 {
        let frame = arbitrary_frame(&mut rng);
        let mut bytes = frame.encode();
        // Sanity: the unmutated bytes round-trip.
        assert_eq!(decode(&bytes).unwrap().0, frame);
        // Mutate 1–8 bytes anywhere in the frame.
        for _ in 0..rng.gen_range(1usize..9) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen();
        }
        // The mutation may still leave a valid frame (payload bytes of a
        // tensor, say) — it must then re-encode consistently. Otherwise
        // a typed error, proven by getting here without a panic.
        if let Ok((decoded, consumed)) = decode(&bytes) {
            assert!(consumed <= bytes.len());
            let _ = decoded.encode();
        }
    }
}

/// Truncation at every prefix length yields `TruncatedHeader` or
/// `TruncatedPayload` (or another typed error when the mutation landed in
/// the header), never a panic.
#[test]
fn truncated_frames_yield_typed_truncation_errors() {
    let mut rng = StdRng::seed_from_u64(0xF0_22_B2);
    for _ in 0..200 {
        let bytes = arbitrary_frame(&mut rng).encode();
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            if cut < HEADER_LEN {
                assert_eq!(err, WireError::TruncatedHeader { got: cut });
            } else {
                assert!(matches!(err, WireError::TruncatedPayload { .. }), "{err:?}");
            }
        }
    }
}

/// Oversized length prefixes are rejected from the header alone — before
/// any payload allocation — for both the slice and the stream decoder.
#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    let mut rng = StdRng::seed_from_u64(0xF0_22_B3);
    for _ in 0..200 {
        let mut bytes = arbitrary_frame(&mut rng).encode();
        let huge: u32 = rng.gen_range(MAX_PAYLOAD + 1..=u32::MAX);
        bytes[24..28].copy_from_slice(&huge.to_le_bytes());
        bytes.truncate(HEADER_LEN);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            WireError::Oversized { len: huge }
        );
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err(),
            WireError::Oversized { len: huge }
        );
    }
}

/// The stream reader agrees with the slice decoder on arbitrary mutated
/// byte streams: same frame or same error class, and a clean EOF once the
/// stream is exhausted mid-header.
#[test]
fn stream_reader_matches_slice_decoder_on_mutated_streams() {
    let mut rng = StdRng::seed_from_u64(0xF0_22_B4);
    for _ in 0..500 {
        let mut bytes = arbitrary_frame(&mut rng).encode();
        if rng.gen_bool(0.7) && !bytes.is_empty() {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen();
        }
        if rng.gen_bool(0.3) {
            bytes.truncate(rng.gen_range(0..=bytes.len()));
        }
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let streamed = read_frame(&mut cursor);
        match decode(&bytes) {
            Ok((frame, _)) => assert_eq!(streamed.unwrap(), Some(frame)),
            // Empty input is a clean EOF for a stream, an error for a
            // slice decode — the one intentional divergence.
            Err(WireError::TruncatedHeader { got: 0 }) => assert_eq!(streamed.unwrap(), None),
            Err(slice_err) => {
                assert_eq!(streamed.unwrap_err(), slice_err, "input {bytes:02x?}")
            }
        }
    }
}

/// The borrowed-sample encoder the clients send with writes exactly the
/// bytes of the owned `Frame::Request`, appending after what `out` holds.
#[test]
fn encode_request_into_matches_the_request_frame_encoding() {
    let mut rng = StdRng::seed_from_u64(0xF0_22_B5);
    for _ in 0..500 {
        let (id, deadline_us): (u64, u64) = (rng.gen(), rng.gen());
        let input: Vec<f32> = (0..rng.gen_range(0usize..64))
            .map(|_| f32::from_bits(rng.gen()))
            .collect();
        let prefix: Vec<u8> = (0..rng.gen_range(0usize..8)).map(|_| rng.gen()).collect();
        let mut out = prefix.clone();
        encode_request_into(id, deadline_us, &input, &mut out);
        let frame = Frame::Request {
            id,
            deadline_us,
            input,
        };
        assert_eq!(out[..prefix.len()], prefix[..]);
        assert_eq!(out[prefix.len()..], frame.encode()[..]);
    }
}
