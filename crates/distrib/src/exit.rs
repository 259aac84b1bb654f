//! Process exit-code taxonomy shared by the pipeline binaries.
//!
//! `privacy-shardd` and `privacy-monitor` both exit with codes from this
//! table so that callers — the supervisor's restart policy, CI scripts,
//! shell pipelines — can tell *what kind* of failure happened without
//! parsing stderr. `privacy-monitor --workers N` exits with
//! [`DistribError::exit_code`](crate::DistribError::exit_code) when its
//! fleet fails: [`USAGE`], [`SNAPSHOT_FATAL`], [`PROTOCOL_FATAL`],
//! [`RESTARTS_EXHAUSTED`], or a terminal worker's own code. The supervisor
//! additionally uses [`is_terminal`] to decide whether restarting a dead
//! worker can possibly help: a worker that died from an I/O hiccup or an
//! injected crash is worth restarting, one that rejected the model or the
//! protocol will just reject them again.

/// Success.
pub const OK: i32 = 0;
/// Bad command line: unknown flag, missing argument, unparsable value.
pub const USAGE: i32 = 2;
/// The ingest front end rejected the input fatally (strict-mode parse
/// failure, unreadable source log).
pub const INGEST_FATAL: i32 = 10;
/// Monitor state could not be established: snapshot rejected (fingerprint
/// or shape mismatch), model failed to parse, or resume was impossible.
pub const SNAPSHOT_FATAL: i32 = 11;
/// An I/O operation on a file or pipe failed (checkpoint write, log read).
pub const IO_FATAL: i32 = 12;
/// The peer broke the wire protocol: unexpected message kind, undecodable
/// frame, out-of-order acknowledgement.
pub const PROTOCOL_FATAL: i32 = 13;
/// The supervisor gave up on a worker that kept dying without making
/// progress (its restart budget ran out). Only `privacy-monitor
/// --workers` exits with it; a worker never does.
pub const RESTARTS_EXHAUSTED: i32 = 14;
/// The process terminated itself on purpose because an injected fault from
/// a [`FaultPlan`](crate::fault::FaultPlan) fired. Test harness only.
pub const INJECTED_FAULT: i32 = 101;

/// Whether a worker exit code is *terminal*: restarting the worker with the
/// same configuration would deterministically fail again.
///
/// Everything else — injected faults, I/O errors, signal deaths (no code at
/// all), and even an unexpected clean exit — is considered retryable.
#[must_use]
pub fn is_terminal(code: i32) -> bool {
    matches!(code, USAGE | INGEST_FATAL | SNAPSHOT_FATAL | PROTOCOL_FATAL)
}

/// Human-readable label for a known exit code, for diagnostics.
#[must_use]
pub fn describe(code: i32) -> &'static str {
    match code {
        OK => "success",
        USAGE => "usage error",
        INGEST_FATAL => "fatal ingest error",
        SNAPSHOT_FATAL => "snapshot/model mismatch",
        IO_FATAL => "I/O failure",
        PROTOCOL_FATAL => "wire-protocol violation",
        RESTARTS_EXHAUSTED => "worker restarts exhausted",
        INJECTED_FAULT => "injected fault",
        _ => "unknown exit code",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_distinct_and_classified() {
        let codes = [
            OK,
            USAGE,
            INGEST_FATAL,
            SNAPSHOT_FATAL,
            IO_FATAL,
            PROTOCOL_FATAL,
            RESTARTS_EXHAUSTED,
            INJECTED_FAULT,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(is_terminal(USAGE));
        assert!(is_terminal(PROTOCOL_FATAL));
        assert!(is_terminal(SNAPSHOT_FATAL));
        assert!(!is_terminal(INJECTED_FAULT));
        assert!(!is_terminal(IO_FATAL));
        assert!(!is_terminal(OK));
        assert_eq!(describe(INJECTED_FAULT), "injected fault");
    }
}
