//! Hostile-input tests for the wire layer: arbitrary garbage must come
//! back as structured errors — never a panic, never an unbounded buffer.

use fairsqg_wire::{parse, FrameDecoder, FrameError, Value};

/// A deterministic grab-bag of malformed JSON: truncations, wrong types,
/// stray bytes, deep nesting, bad escapes, numeric junk.
fn garbage_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = [
        "",
        "{",
        "}",
        "[",
        "]",
        "{]",
        "[}",
        "nul",
        "truefalse",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"\\u12\"",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "[1,2,]",
        "[1 2]",
        "{1: 2}",
        "+5",
        "--3",
        "1e",
        "0x10",
        ".5",
        "5.",
        "1.2.3",
        "{\"op\": \"submit\", \"job\": }",
        "\u{7f}\u{1}\u{2}",
        "{\"a\": \"\u{0}\"}",
        "ΣΩ≠ not json",
        "{\"nested\": {\"deep\": [",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Deep nesting: a parser with unbounded recursion would overflow.
    corpus.push("[".repeat(2_000));
    corpus.push(format!("{}1{}", "[".repeat(500), "]".repeat(499)));
    // A valid prefix with trailing garbage.
    corpus.push("{\"ok\": true} trailing".to_string());
    // Truncations of a valid request at every byte boundary.
    let valid = r#"{"op":"submit","job":{"graph":"g","cover":5,"eps":0.1}}"#;
    for cut in 1..valid.len() {
        if valid.is_char_boundary(cut) {
            corpus.push(valid[..cut].to_string());
        }
    }
    corpus
}

#[test]
fn garbage_json_parses_to_errors_never_panics() {
    for (i, text) in garbage_corpus().iter().enumerate() {
        let outcome = std::panic::catch_unwind(|| parse(text));
        let result = outcome.unwrap_or_else(|_| panic!("parser panicked on corpus[{i}]: {text:?}"));
        assert!(
            result.is_err(),
            "corpus[{i}] should be rejected, parsed: {text:?}"
        );
        // The error's Display must render (no panic formatting positions).
        let _ = result.unwrap_err().to_string();
    }
}

/// Pushes `bytes` in `chunk`-sized pieces, signals EOF, and returns every
/// frame (or in-sequence framing error) the decoder produced.
fn decode_all(
    decoder: &mut FrameDecoder,
    bytes: &[u8],
    chunk: usize,
) -> Vec<Result<String, FrameError>> {
    let mut out = Vec::new();
    for piece in bytes.chunks(chunk) {
        decoder.push(piece);
        out.extend(std::iter::from_fn(|| decoder.next_frame()));
    }
    decoder.finish();
    out.extend(std::iter::from_fn(|| decoder.next_frame()));
    out
}

#[test]
fn valid_frames_survive_between_garbage_frames() {
    // A stream interleaving junk and real frames: the framing layer hands
    // every line through and the parser classifies each independently.
    let stream = "not json\n{\"op\":\"ping\"}\n{{{{\n{\"ok\":true}\n";
    let mut parsed = 0;
    let mut rejected = 0;
    for frame in decode_all(&mut FrameDecoder::new(1024), stream.as_bytes(), 7) {
        match parse(&frame.unwrap()) {
            Ok(v) => {
                assert!(matches!(v, Value::Object(_)));
                parsed += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    assert_eq!((parsed, rejected), (2, 2));
}

#[test]
fn oversized_frame_is_bounded_and_recoverable() {
    // 8 MiB line against a 64 KiB cap: the decoder must refuse it without
    // buffering it, then resync on the next line.
    let cap = 64 * 1024;
    let huge = "z".repeat(8 * 1024 * 1024);
    let stream = format!("{huge}\n{{\"op\":\"ping\"}}\n");
    let mut decoder = FrameDecoder::new(cap);
    let mut frames = Vec::new();
    for piece in stream.as_bytes().chunks(16 * 1024) {
        decoder.push(piece);
        assert!(decoder.buffered() <= cap, "buffered past the cap");
        frames.extend(std::iter::from_fn(|| decoder.next_frame()));
    }
    decoder.finish();
    assert!(
        decoder.next_frame().is_none(),
        "the stream ended on a newline"
    );
    match &frames[0] {
        Err(FrameError::TooLarge { limit }) => assert_eq!(*limit, cap),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    let next = frames[1].as_ref().unwrap();
    assert!(parse(next).is_ok(), "stream did not resync: {next:?}");
    assert_eq!(frames.len(), 2);
}

#[test]
fn binary_noise_is_rejected_per_line_without_killing_the_stream() {
    // Invalid UTF-8 lines surface as InvalidData I/O errors; following
    // lines still decode.
    let mut bytes: Vec<u8> = vec![0xff, 0x00, 0x9b, b'\n'];
    bytes.extend_from_slice(b"{\"op\":\"ping\"}\n");
    let frames = decode_all(&mut FrameDecoder::new(1024), &bytes, 3);
    match &frames[0] {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("expected InvalidData, got {other:?}"),
    }
    assert_eq!(frames[1].as_deref().unwrap(), "{\"op\":\"ping\"}");
    assert_eq!(frames.len(), 2);
}
