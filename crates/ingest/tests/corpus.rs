//! The malformed-input corpus: checked-in broken logs with pinned typed
//! errors, plus a byte-mutation fuzz pass.
//!
//! Each file under `tests/corpus/` is one class of real-world breakage —
//! truncation, invalid UTF-8, mixed formats, duplicate keys, oversized
//! fields, corrupt gzip trailers. The contract under test: every file
//! produces the *pinned* typed [`IngestError`] under fail-fast, behaves as
//! documented under skip, and **nothing in the corpus (or any random
//! mutation of valid input) can panic the ingester**.

use privacy_ingest::{
    ingest_bytes, ErrorPolicy, FieldMapping, GzipError, IngestError, IngestOptions, Role,
};
use privacy_synth::{render_events, LogFormat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mapping matching the corpus files' vocabulary (canonical keys, no
/// special defaults).
fn mapping() -> FieldMapping {
    FieldMapping::canonical()
}

fn options(policy: ErrorPolicy) -> IngestOptions {
    IngestOptions { policy, ..IngestOptions::default() }
}

/// Runs one corpus file under both policies and returns the fail-fast
/// error (every corpus file must produce one).
fn fail_fast_error(bytes: &[u8]) -> IngestError {
    ingest_bytes(bytes, &mapping(), &options(ErrorPolicy::FailFast))
        .expect_err("corpus file must fail under fail-fast")
}

/// Skip-mode result: (events, skipped) — or the stream-level error.
fn skip_outcome(bytes: &[u8]) -> Result<(u64, u64), IngestError> {
    ingest_bytes(bytes, &mapping(), &options(ErrorPolicy::Skip))
        .map(|report| (report.stats.events, report.stats.skipped))
}

#[test]
fn truncated_json_line_is_a_syntax_error_and_skippable() {
    let bytes = include_bytes!("corpus/truncated.json");
    assert!(matches!(fail_fast_error(bytes), IngestError::Syntax { line: 2, .. }));
    // Skip mode keeps the good line and drops the truncated one.
    assert_eq!(skip_outcome(bytes).unwrap(), (1, 1));
}

#[test]
fn invalid_utf8_is_pinned_to_its_byte_and_skippable() {
    let bytes = include_bytes!("corpus/invalid_utf8.logfmt");
    let error = fail_fast_error(bytes);
    assert_eq!(error, IngestError::InvalidUtf8 { line: 2, column: 12 });
    assert_eq!(skip_outcome(bytes).unwrap(), (2, 1));
}

#[test]
fn mixed_formats_fail_line_by_line_after_detection() {
    let bytes = include_bytes!("corpus/mixed_formats.log");
    // Line 1 fixes the stream as JSON; the logfmt line is then a JSON
    // syntax error at its first byte.
    assert!(matches!(fail_fast_error(bytes), IngestError::Syntax { line: 2, column: 1, .. }));
    // Skip mode: the JSON line survives, the logfmt and CSV lines do not.
    assert_eq!(skip_outcome(bytes).unwrap(), (1, 2));
}

#[test]
fn a_multibyte_character_among_unicode_escape_digits_is_a_syntax_error() {
    // `\u000é` and `\ude0é`: the fourth "hex digit" is the first byte of
    // `é`, so reading the digits as text would cut the character in two.
    let bytes = include_bytes!("corpus/split_unicode_escape.json");
    match fail_fast_error(bytes) {
        IngestError::Syntax { line, column, message, .. } => {
            assert_eq!((line, column), (2, 23));
            assert!(message.contains("invalid \\u escape"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Skip mode keeps lines 1 and 3 and quarantines lines 2 and 4.
    assert_eq!(skip_outcome(bytes).unwrap(), (2, 2));
}

#[test]
fn duplicate_json_keys_are_rejected_with_the_key_named() {
    let bytes = include_bytes!("corpus/duplicate_keys.json");
    match fail_fast_error(bytes) {
        IngestError::DuplicateKey { line: 1, key, .. } => assert_eq!(key, "user"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(skip_outcome(bytes).unwrap(), (0, 1));
}

#[test]
fn duplicate_csv_header_columns_poison_the_stream() {
    let bytes = include_bytes!("corpus/duplicate_header.csv");
    match fail_fast_error(bytes) {
        IngestError::DuplicateKey { line: 1, key, .. } => assert_eq!(key, "user"),
        other => panic!("unexpected {other:?}"),
    }
    // The header is line-scoped, so skip mode drops it — but then every
    // data row resolves against no header... which re-primes on the first
    // data row as a header. The rows that follow cannot resolve (no `user`
    // column), so nothing gets through; what matters is: no panic, no
    // events fabricated.
    let (events, _) = skip_outcome(bytes).unwrap();
    assert_eq!(events, 0);
}

#[test]
fn oversized_fields_hit_the_line_limit_not_the_allocator() {
    let bytes = include_bytes!("corpus/huge_field.logfmt");
    let tight = IngestOptions {
        policy: ErrorPolicy::FailFast,
        max_line_bytes: 64 * 1024,
        ..IngestOptions::default()
    };
    match ingest_bytes(bytes, &mapping(), &tight).unwrap_err() {
        IngestError::LineTooLong { line: 2, length, limit } => {
            assert!(length > limit);
            assert_eq!(limit, 64 * 1024);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Skip mode with the tight limit: lines 1 and 3 survive.
    let skip = IngestOptions {
        policy: ErrorPolicy::Skip,
        max_line_bytes: 64 * 1024,
        ..IngestOptions::default()
    };
    let report = ingest_bytes(bytes, &mapping(), &skip).unwrap();
    assert_eq!((report.stats.events, report.stats.skipped), (2, 1));
    // Under the default (1 MiB) limit the huge field is simply a value.
    let report = ingest_bytes(bytes, &mapping(), &options(ErrorPolicy::Skip)).unwrap();
    assert_eq!(report.stats.events, 3);
}

#[test]
fn real_zlib_gzip_decodes_and_its_corruptions_are_stream_fatal() {
    // Control: an archive produced by real zlib deflate must decode.
    let good = include_bytes!("corpus/good.logfmt.gz");
    let report = ingest_bytes(good, &mapping(), &options(ErrorPolicy::FailFast)).unwrap();
    assert_eq!(report.stats.events, 20);

    // A flipped CRC bit is a typed checksum mismatch...
    let bad = include_bytes!("corpus/bad_trailer.logfmt.gz");
    assert!(matches!(fail_fast_error(bad), IngestError::Gzip(GzipError::ChecksumMismatch { .. })));
    // ...and gzip errors are stream-level: skip mode cannot rescue them.
    assert!(matches!(
        skip_outcome(bad),
        Err(IngestError::Gzip(GzipError::ChecksumMismatch { .. }))
    ));

    // A half archive is a typed truncation, under both policies.
    let cut = include_bytes!("corpus/truncated.gz");
    assert!(matches!(fail_fast_error(cut), IngestError::Gzip(GzipError::Truncated { .. })));
    assert!(matches!(skip_outcome(cut), Err(IngestError::Gzip(GzipError::Truncated { .. }))));
}

#[test]
fn unterminated_csv_quote_at_eof_is_typed_under_both_policies() {
    let bytes = include_bytes!("corpus/unterminated_quote.csv");
    assert!(matches!(fail_fast_error(bytes), IngestError::Syntax { line: 2, .. }));
    assert_eq!(skip_outcome(bytes).unwrap(), (0, 1));
}

#[test]
fn undetectable_formats_are_stream_fatal_under_both_policies() {
    let bytes = include_bytes!("corpus/unknown_format.log");
    assert_eq!(fail_fast_error(bytes), IngestError::UnknownFormat { line: 1 });
    assert_eq!(skip_outcome(bytes), Err(IngestError::UnknownFormat { line: 1 }));
}

#[test]
fn the_whole_corpus_never_panics_under_any_declared_format() {
    // Sweep every corpus file through every (declared format, policy)
    // combination — 12 files × 4 formats × 2 policies. Outcomes vary; what
    // is pinned is totality: a typed result every time.
    let corpus: [(&str, &[u8]); 12] = [
        ("truncated.json", include_bytes!("corpus/truncated.json")),
        ("invalid_utf8.logfmt", include_bytes!("corpus/invalid_utf8.logfmt")),
        ("mixed_formats.log", include_bytes!("corpus/mixed_formats.log")),
        ("duplicate_keys.json", include_bytes!("corpus/duplicate_keys.json")),
        ("duplicate_header.csv", include_bytes!("corpus/duplicate_header.csv")),
        ("huge_field.logfmt", include_bytes!("corpus/huge_field.logfmt")),
        ("bad_trailer.logfmt.gz", include_bytes!("corpus/bad_trailer.logfmt.gz")),
        ("good.logfmt.gz", include_bytes!("corpus/good.logfmt.gz")),
        ("truncated.gz", include_bytes!("corpus/truncated.gz")),
        ("unterminated_quote.csv", include_bytes!("corpus/unterminated_quote.csv")),
        ("unknown_format.log", include_bytes!("corpus/unknown_format.log")),
        ("split_unicode_escape.json", include_bytes!("corpus/split_unicode_escape.json")),
    ];
    use privacy_ingest::Format;
    let formats = [None, Some(Format::Json), Some(Format::Logfmt), Some(Format::Csv)];
    for (_name, bytes) in corpus {
        for format in formats {
            for policy in [ErrorPolicy::FailFast, ErrorPolicy::Skip] {
                let opts = IngestOptions { format, policy, ..IngestOptions::default() };
                // Must return, never panic.
                let _ = ingest_bytes(bytes, &mapping(), &opts);
            }
        }
    }
}

#[test]
fn resolver_errors_carry_their_roles() {
    // One corpus-adjacent check: mapping-level failures (as opposed to
    // parse-level) name the role they could not fill.
    let bytes = b"seq=1 service=portal actor=clerk action=read\n";
    match fail_fast_error(bytes) {
        IngestError::MissingColumn { role, key, .. } => {
            assert_eq!(role, Role::User);
            assert_eq!(key, "user");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Renders a small seeded event stream for mutation (valid input to start
/// from, varied by `seed`).
fn valid_log(seed: u64, format: LogFormat) -> Vec<u8> {
    use privacy_lts::ActionKind;
    use privacy_model::FieldId;
    use privacy_runtime::Event;
    let mut rng = StdRng::seed_from_u64(seed);
    let events: Vec<Event> = (0..rng.gen_range(2..10usize))
        .map(|i| {
            let fields: Vec<FieldId> = (0..rng.gen_range(0..3usize))
                .map(|j| FieldId::from(format!("field-{j}").as_str()))
                .collect();
            Event::new(
                (i as u64 + 1) * 2,
                format!("user-{}", rng.gen_range(0..5u32)),
                "portal",
                "clerk",
                ActionKind::ALL[rng.gen_range(0..ActionKind::ALL.len())],
                fields,
                None,
                rng.gen_bool(0.9),
            )
        })
        .collect();
    render_events(&events, format).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Byte-mutation fuzz: take a valid rendered log, flip/insert/delete a
    /// handful of bytes, and ingest under both policies (and the gzip
    /// wrapper). The only acceptable outcomes are `Ok` or a typed error —
    /// a panic fails the test by construction.
    #[test]
    fn mutated_logs_never_panic(seed in 0u64..1 << 48, mutations in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let format = LogFormat::ALL[(seed % 3) as usize];
        let mut bytes = valid_log(seed, format);
        for _ in 0..mutations {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3u32) {
                0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                1 => bytes[at] = rng.gen_range(0..=255u32) as u8,
                _ => {
                    bytes.remove(at);
                }
            }
        }
        for policy in [ErrorPolicy::FailFast, ErrorPolicy::Skip] {
            let _ = ingest_bytes(&bytes, &mapping(), &options(policy));
        }
        // And the same mutated bytes wrapped as (then corrupted after)
        // gzip: exercises the inflate error paths from arbitrary input.
        let mut archive = privacy_ingest::gzip_compress_stored(&bytes);
        let at = rng.gen_range(0..archive.len());
        archive[at] ^= 1 << rng.gen_range(0..8u32);
        let _ = ingest_bytes(&archive, &mapping(), &options(ErrorPolicy::Skip));
    }
}
