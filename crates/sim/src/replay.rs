//! Strict JSONL trace replay.
//!
//! The inverse of [`crate::trace::JsonlSink`]: reads a JSON-Lines trace
//! back into [`TraceRecord`]s, line by line. This reader is *strict* —
//! any malformed line stops the replay with a [`ReplayError`] naming the
//! line — because it serves consumers that trust their input (the
//! `exp_online` closed-loop harness replaying traces the engine itself
//! recorded, tests diffing golden traces). The `rod-ctrl` daemon, whose
//! telemetry input is untrusted, layers its own tolerant classification
//! on top: it feeds each raw line through [`parse_line`] and converts
//! errors into counted rejections instead of failing.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::trace::TraceRecord;

/// Why a trace replay stopped.
#[derive(Debug)]
pub enum ReplayError {
    /// The underlying reader failed.
    Io {
        /// 1-based line number at which the failure occurred.
        line: u64,
        /// The I/O error message.
        message: String,
    },
    /// A line was not a valid [`TraceRecord`] JSON object.
    BadRecord {
        /// 1-based line number of the offending line.
        line: u64,
        /// The parse error message.
        message: String,
    },
    /// The stream held no records at all.
    Empty,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io { line, message } => {
                write!(f, "trace replay i/o error at line {line}: {message}")
            }
            ReplayError::BadRecord { line, message } => {
                write!(f, "trace line {line} is not a TraceRecord: {message}")
            }
            ReplayError::Empty => write!(f, "trace stream holds no records"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parses one JSONL line into a [`TraceRecord`] (no line-number context;
/// callers that track position wrap the error themselves).
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    serde_json::from_str(line.trim()).map_err(|e| e.to_string())
}

/// Streaming strict reader over a JSONL trace: yields each record in
/// order, stopping at the first malformed line. Blank lines are skipped
/// (a trailing newline is not an error).
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    reader: R,
    line: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens a JSONL trace file for strict replay.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(TraceReader::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps an arbitrary buffered reader.
    pub fn new(reader: R) -> Self {
        TraceReader { reader, line: 0 }
    }

    /// 1-based number of the last line read.
    pub fn line(&self) -> u64 {
        self.line
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, ReplayError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut buf = String::new();
            self.line += 1;
            match self.reader.read_line(&mut buf) {
                Ok(0) => return None,
                Ok(_) => {
                    if buf.trim().is_empty() {
                        continue;
                    }
                    return Some(parse_line(&buf).map_err(|message| ReplayError::BadRecord {
                        line: self.line,
                        message,
                    }));
                }
                Err(e) => {
                    return Some(Err(ReplayError::Io {
                        line: self.line,
                        message: e.to_string(),
                    }))
                }
            }
        }
    }
}

pub mod scan {
    //! Zero-copy JSONL scanning — the batched-ingestion fast path.
    //!
    //! [`read_trace`](super::read_trace) and the line-at-a-time telemetry
    //! path pay one `String` allocation plus a full `serde_json` value
    //! tree per line. At production telemetry volumes (1M samples/s) that
    //! parse cost steals the CPU the control loop's planner needs, so
    //! this module provides the two pieces of a batched fast path:
    //!
    //! * [`LineScanner`] finds line boundaries in reusable byte buffers,
    //!   carrying partial lines across chunk boundaries, with exactly
    //!   `BufRead::lines` splitting semantics (trailing `\n` removed, a
    //!   `\r` immediately before it removed, final unterminated line
    //!   yielded by [`LineScanner::finish`]);
    //! * [`probe_util_sample`] recognises `UtilSample` records with a
    //!   cheap tag probe and decodes the numeric payload straight from
    //!   the byte slice into a reusable [`UtilScratch`] — no intermediate
    //!   `String`s, no value tree, no per-record allocation once the
    //!   scratch vectors have warmed up.
    //!
    //! **Equivalence contract.** The probe accepts a *strict subset* of
    //! the lines [`parse_line`](super::parse_line) accepts — essentially
    //! the compact form [`JsonlSink`](crate::trace::JsonlSink) emits,
    //! with optional ASCII whitespace between tokens — and on every
    //! accepted line decodes bit-identical values: numeric tokens are
    //! delimited by the same rules as the JSON parser and handed to the
    //! same `str::parse::<f64>()` the parser uses, so the resulting bits
    //! cannot differ. Anything outside the strict grammar (field
    //! reordering, escapes in keys, `null` rates, duplicate keys, exotic
    //! whitespace, other record kinds, malformed bytes) returns `false`
    //! and the caller falls back to the full parser, which remains the
    //! oracle. Proptests in `rod-ctrl` pin the contract over hostile
    //! streams chopped at arbitrary buffer boundaries.

    /// Splits byte chunks into lines, mirroring `BufRead::lines`.
    ///
    /// Feed arbitrary chunks with [`feed`](LineScanner::feed); each
    /// complete line (without its `\n`, and without a `\r` immediately
    /// before it) is passed to the callback in order. Bytes after the
    /// last newline are carried over — only lines that span a chunk
    /// boundary are copied; lines interior to a chunk are borrowed
    /// zero-copy. Call [`finish`](LineScanner::finish) at end of stream
    /// to flush a final unterminated line (kept verbatim: a lone
    /// trailing `\r` at EOF is *not* stripped, exactly like
    /// `BufRead::lines`).
    #[derive(Debug, Default)]
    pub struct LineScanner {
        carry: Vec<u8>,
    }

    /// Word-at-a-time newline search — the scanner walks every byte of
    /// the stream through this, so it reads eight at a time with the
    /// classic SWAR zero-byte trick rather than a per-byte loop.
    fn find_newline(bytes: &[u8]) -> Option<usize> {
        const LO: u64 = 0x0101_0101_0101_0101;
        const HI: u64 = 0x8080_8080_8080_8080;
        const NL: u64 = 0x0a0a_0a0a_0a0a_0a0a;
        let mut i = 0;
        while i + 8 <= bytes.len() {
            let word = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
            let x = word ^ NL;
            let found = x.wrapping_sub(LO) & !x & HI;
            if found != 0 {
                return Some(i + (found.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        bytes[i..].iter().position(|&b| b == b'\n').map(|p| i + p)
    }

    fn strip_cr(line: &[u8]) -> &[u8] {
        match line.last() {
            Some(b'\r') => &line[..line.len() - 1],
            _ => line,
        }
    }

    impl LineScanner {
        /// A scanner with no carried bytes.
        pub fn new() -> LineScanner {
            LineScanner::default()
        }

        /// Number of bytes carried over from previous chunks (a partial
        /// line waiting for its newline).
        pub fn carried(&self) -> usize {
            self.carry.len()
        }

        /// Scans `chunk`, invoking `f` once per complete line. On error
        /// the offending line counts as consumed; the scanner remains
        /// usable for the rest of the stream.
        pub fn feed<E>(
            &mut self,
            chunk: &[u8],
            mut f: impl FnMut(&[u8]) -> Result<(), E>,
        ) -> Result<(), E> {
            let mut rest = chunk;
            if !self.carry.is_empty() {
                match find_newline(rest) {
                    None => {
                        self.carry.extend_from_slice(rest);
                        return Ok(());
                    }
                    Some(nl) => {
                        self.carry.extend_from_slice(&rest[..nl]);
                        let result = f(strip_cr(&self.carry));
                        self.carry.clear();
                        result?;
                        rest = &rest[nl + 1..];
                    }
                }
            }
            while let Some(nl) = find_newline(rest) {
                f(strip_cr(&rest[..nl]))?;
                rest = &rest[nl + 1..];
            }
            self.carry.extend_from_slice(rest);
            Ok(())
        }

        /// Flushes the final unterminated line, if any.
        pub fn finish<E>(&mut self, mut f: impl FnMut(&[u8]) -> Result<(), E>) -> Result<(), E> {
            if self.carry.is_empty() {
                return Ok(());
            }
            // The final line kept its bytes verbatim (no `\n`, so no
            // `\r\n` stripping applies).
            let result = f(&self.carry);
            self.carry.clear();
            result
        }
    }

    /// Reusable per-record scratch for the fast-path decoder. The
    /// vectors keep their capacity across records, so a steady stream of
    /// same-shaped samples decodes allocation-free.
    #[derive(Clone, Debug, Default)]
    pub struct UtilScratch {
        /// Telemetry time of the sample.
        pub time: f64,
        /// Per-node utilisations.
        pub utilisations: Vec<f64>,
        /// Per-node queue depths (validated but unused by ingestion).
        pub queue_depths: Vec<usize>,
        /// Total queued work items.
        pub queued: usize,
        /// Per-input-stream arrival rates.
        pub rates: Vec<f64>,
    }

    /// Exact powers of ten: every `10^k` with `k ≤ 22` is an `f64`.
    const POW10: [f64; 23] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    ];

    /// The value of the unsigned decimal `int.frac` when Clinger's fast
    /// path applies: its digits as an integer `w ≤ 2^53` and at most 22
    /// fraction digits. Then `w` and `10^frac` are both exact `f64`s and
    /// one correctly rounded division yields the correctly rounded value
    /// of the decimal — the very bits `str::parse::<f64>` returns. `None`
    /// sends the token to `parse`.
    fn exact_decimal(int: &[u8], frac: &[u8]) -> Option<f64> {
        // 19 digits cannot overflow a u64.
        if int.len() + frac.len() > 19 || frac.len() >= POW10.len() {
            return None;
        }
        let w = int
            .iter()
            .chain(frac)
            .fold(0u64, |w, d| w * 10 + u64::from(d - b'0'));
        (w <= 1 << 53).then(|| w as f64 / POW10[frac.len()])
    }

    /// Byte cursor over one line; all helpers consume only ASCII, so an
    /// accepted line is guaranteed valid UTF-8.
    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn eat(&mut self, b: u8) -> bool {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        fn eat_token(&mut self, token: &[u8]) -> bool {
            if self.bytes[self.pos..].starts_with(token) {
                self.pos += token.len();
                true
            } else {
                false
            }
        }

        /// `ws "key" ws : ws` — keys must match literally (escaped
        /// spellings of the same key fall back to the full parser).
        fn eat_key(&mut self, key: &[u8]) -> bool {
            self.skip_ws();
            if !self.eat(b'"') || !self.eat_token(key) || !self.eat(b'"') {
                return false;
            }
            self.skip_ws();
            if !self.eat(b':') {
                return false;
            }
            self.skip_ws();
            true
        }

        fn digits(&mut self) -> bool {
            let start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            self.pos > start
        }

        /// A strict JSON number token: `-? digits (. digits)? ([eE]
        /// [+-]? digits)?` — a subset of both the JSON parser's token
        /// rule and `f64::from_str`'s grammar, delimited identically, so
        /// the token decodes to the very bits the full parse gives it:
        /// short plain decimals by [`exact_decimal`], the rest by
        /// `str::parse::<f64>()`, and an integer zero as `+0.0` (the full
        /// parser reads integers as integers). Returns `None` on any
        /// deviation (the caller falls back).
        fn f64_token(&mut self) -> Option<f64> {
            let start = self.pos;
            let negative = self.eat(b'-');
            let int_start = self.pos;
            if !self.digits() {
                return None;
            }
            let int = &self.bytes[int_start..self.pos];
            let mut frac: &[u8] = &[];
            if self.eat(b'.') {
                let frac_start = self.pos;
                if !self.digits() {
                    return None;
                }
                frac = &self.bytes[frac_start..self.pos];
            }
            let exponent = matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E'));
            if exponent {
                self.pos += 1;
                if !self.eat(b'+') {
                    self.eat(b'-');
                }
                if !self.digits() {
                    return None;
                }
            }
            let value = match exact_decimal(int, frac).filter(|_| !exponent) {
                Some(v) if negative => -v,
                Some(v) => v,
                None => {
                    // The token is pure ASCII by construction.
                    let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                    text.parse::<f64>().ok()?
                }
            };
            // The full parser reads an integer token as an integer, which
            // has no negative zero: `-0` is `+0.0` there too.
            let integer = frac.is_empty() && !exponent;
            Some(if integer && value == 0.0 { 0.0 } else { value })
        }

        /// A non-negative integer token in `usize` range. Tokens with a
        /// fraction/exponent or out of range return `None` (the full
        /// parser classifies those — float-valued counts are malformed).
        fn usize_token(&mut self) -> Option<usize> {
            let start = self.pos;
            if !self.digits() {
                return None;
            }
            // A '.' / 'e' suffix means this is a float token: not
            // representable as usize — defer to the oracle.
            if matches!(
                self.bytes.get(self.pos),
                Some(b'.') | Some(b'e') | Some(b'E')
            ) {
                return None;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
            text.parse::<u64>()
                .ok()
                .and_then(|v| usize::try_from(v).ok())
        }

        fn f64_array(&mut self, out: &mut Vec<f64>) -> bool {
            self.array(|c| c.f64_token(), out)
        }

        fn usize_array(&mut self, out: &mut Vec<usize>) -> bool {
            self.array(|c| c.usize_token(), out)
        }

        fn array<T>(
            &mut self,
            mut elem: impl FnMut(&mut Self) -> Option<T>,
            out: &mut Vec<T>,
        ) -> bool {
            out.clear();
            if !self.eat(b'[') {
                return false;
            }
            self.skip_ws();
            if self.eat(b']') {
                return true;
            }
            loop {
                match elem(self) {
                    Some(v) => out.push(v),
                    None => return false,
                }
                self.skip_ws();
                if self.eat(b']') {
                    return true;
                }
                if !self.eat(b',') {
                    return false;
                }
                self.skip_ws();
            }
        }
    }

    /// Attempts the fast-path decode of one line as a `UtilSample`
    /// record into `scratch`. Returns `true` when the line matched the
    /// strict emitted grammar (fields in declaration order, literal
    /// keys, plain numeric tokens); `false` means *fall back to
    /// [`parse_line`](super::parse_line)* — it does **not** mean the
    /// line is invalid or a different record kind.
    pub fn probe_util_sample(line: &[u8], scratch: &mut UtilScratch) -> bool {
        let mut c = Cursor {
            bytes: line,
            pos: 0,
        };
        c.skip_ws();
        if !c.eat(b'{') {
            return false;
        }
        if !c.eat_key(b"UtilSample") || !c.eat(b'{') {
            return false;
        }
        if !c.eat_key(b"time") {
            return false;
        }
        let Some(time) = c.f64_token() else {
            return false;
        };
        c.skip_ws();
        if !c.eat(b',') || !c.eat_key(b"utilisations") {
            return false;
        }
        let mut utilisations = std::mem::take(&mut scratch.utilisations);
        let mut queue_depths = std::mem::take(&mut scratch.queue_depths);
        let mut rates = std::mem::take(&mut scratch.rates);
        let ok = (|| {
            if !c.f64_array(&mut utilisations) {
                return false;
            }
            c.skip_ws();
            if !c.eat(b',') || !c.eat_key(b"queue_depths") {
                return false;
            }
            if !c.usize_array(&mut queue_depths) {
                return false;
            }
            c.skip_ws();
            if !c.eat(b',') || !c.eat_key(b"queued") {
                return false;
            }
            let Some(queued) = c.usize_token() else {
                return false;
            };
            scratch.queued = queued;
            c.skip_ws();
            if !c.eat(b',') || !c.eat_key(b"rates") {
                return false;
            }
            if !c.f64_array(&mut rates) {
                return false;
            }
            c.skip_ws();
            if !c.eat(b'}') {
                return false;
            }
            c.skip_ws();
            if !c.eat(b'}') {
                return false;
            }
            c.skip_ws();
            c.pos == line.len()
        })();
        scratch.utilisations = utilisations;
        scratch.queue_depths = queue_depths;
        scratch.rates = rates;
        scratch.time = time;
        ok
    }
}

/// Reads an entire JSONL trace strictly into memory, erroring on the
/// first malformed line or an empty stream.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, ReplayError> {
    let reader = TraceReader::open(path).map_err(|e| ReplayError::Io {
        line: 0,
        message: e.to_string(),
    })?;
    let records = reader.collect::<Result<Vec<_>, _>>()?;
    if records.is_empty() {
        return Err(ReplayError::Empty);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{JsonlSink, TraceSink};
    use std::io::Cursor;

    fn sample_lines() -> Vec<u8> {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceRecord::RunStart {
            horizon: 10.0,
            warmup: 1.0,
            seed: 3,
            nodes: 2,
            operators: 4,
        });
        sink.record(
            &TraceRecord::util_sample(1.0, vec![0.1, 0.4], vec![0, 2], 2, vec![30.0]).unwrap(),
        );
        sink.record(&TraceRecord::RunEnd {
            time: 10.0,
            tuples_in: 100,
            tuples_out: 90,
            tuples_processed: 300,
            tuples_shed: 0,
            saturated: false,
        });
        sink.into_inner()
    }

    #[test]
    fn reader_round_trips_sink_output() {
        let bytes = sample_lines();
        let records: Vec<TraceRecord> = TraceReader::new(Cursor::new(bytes))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], TraceRecord::RunStart { .. }));
        assert!(matches!(
            records[1],
            TraceRecord::UtilSample { queued: 2, .. }
        ));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut bytes = sample_lines();
        bytes.extend_from_slice(b"\n\n");
        let records: Vec<TraceRecord> = TraceReader::new(Cursor::new(bytes))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn malformed_line_stops_with_line_number() {
        let mut bytes = sample_lines();
        bytes.extend_from_slice(b"{\"UtilSample\": garbage}\n");
        let result: Result<Vec<TraceRecord>, ReplayError> =
            TraceReader::new(Cursor::new(bytes)).collect();
        match result {
            Err(ReplayError::BadRecord { line: 4, .. }) => {}
            other => panic!("expected BadRecord at line 4, got {other:?}"),
        }
    }

    mod scan {
        use super::super::scan::{probe_util_sample, LineScanner, UtilScratch};
        use super::super::{parse_line, TraceRecord};
        use std::io::BufRead;

        /// Collects lines through the scanner at the given chunk size.
        fn scan_lines(bytes: &[u8], chunk: usize) -> Vec<Vec<u8>> {
            let mut scanner = LineScanner::new();
            let mut out: Vec<Vec<u8>> = Vec::new();
            for piece in bytes.chunks(chunk.max(1)) {
                scanner
                    .feed::<()>(piece, |line| {
                        out.push(line.to_vec());
                        Ok(())
                    })
                    .unwrap();
            }
            scanner
                .finish::<()>(|line| {
                    out.push(line.to_vec());
                    Ok(())
                })
                .unwrap();
            out
        }

        #[test]
        fn scanner_matches_bufread_lines_at_every_chunk_size() {
            let streams: &[&[u8]] = &[
                b"a\nbb\nccc\n",
                b"a\nbb\nccc",
                b"\n\na\n\n",
                b"crlf\r\nmixed\nlone\rcr\r\ntail\r",
                b"",
                b"no newline at all",
                b"\r\n",
            ];
            for &bytes in streams {
                let expected: Vec<Vec<u8>> = std::io::Cursor::new(bytes)
                    .lines()
                    .map(|l| l.unwrap().into_bytes())
                    .collect();
                for chunk in 1..=bytes.len().max(1) {
                    assert_eq!(
                        scan_lines(bytes, chunk),
                        expected,
                        "stream {bytes:?} at chunk size {chunk}"
                    );
                }
            }
        }

        #[test]
        fn scanner_is_reusable_after_callback_error() {
            let mut scanner = LineScanner::new();
            let mut seen = Vec::new();
            let r = scanner.feed(b"good\nbad\nnext\n", |line| {
                seen.push(line.to_vec());
                if line == b"bad" {
                    Err("stop")
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Err("stop"));
            // The erroring line was consumed; the rest of the stream is
            // still scannable.
            scanner
                .feed::<()>(b"", |line| {
                    seen.push(line.to_vec());
                    Ok(())
                })
                .unwrap();
            assert_eq!(seen, vec![b"good".to_vec(), b"bad".to_vec()]);
        }

        /// The oracle's view of a line, if it is a UtilSample.
        #[allow(clippy::type_complexity)]
        fn oracle(line: &str) -> Option<(f64, Vec<f64>, Vec<usize>, usize, Vec<f64>)> {
            match parse_line(line) {
                Ok(TraceRecord::UtilSample {
                    time,
                    utilisations,
                    queue_depths,
                    queued,
                    rates,
                }) => Some((time, utilisations, queue_depths, queued, rates)),
                _ => None,
            }
        }

        /// Asserts the probe's contract on one line: if it accepts, the
        /// oracle must agree bit-for-bit.
        fn check(line: &str) -> bool {
            let mut scratch = UtilScratch::default();
            let accepted = probe_util_sample(line.as_bytes(), &mut scratch);
            if accepted {
                let (time, utils, depths, queued, rates) =
                    oracle(line).expect("probe accepted a line the oracle rejects");
                assert_eq!(time.to_bits(), scratch.time.to_bits(), "{line}");
                assert_eq!(
                    utils.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    scratch
                        .utilisations
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "{line}"
                );
                assert_eq!(depths, scratch.queue_depths, "{line}");
                assert_eq!(queued, scratch.queued, "{line}");
                assert_eq!(
                    rates.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    scratch
                        .rates
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "{line}"
                );
            }
            accepted
        }

        #[test]
        fn probe_accepts_emitted_form_bit_identically() {
            let record =
                TraceRecord::util_sample(1.25, vec![0.1, 0.999999999], vec![0, 7], 9, vec![3e5])
                    .unwrap();
            let line = serde_json::to_string(&record).unwrap();
            assert!(check(&line), "emitted form must take the fast path");
            // Whitespace between tokens is tolerated.
            assert!(check(
                r#" { "UtilSample" : { "time" : 2.0 , "utilisations" : [ ] , "queue_depths" : [ ] , "queued" : 0 , "rates" : [ 1.0 , 2e-3 ] } } "#
            ));
            // Exotic numeric spellings that both parsers accept.
            for line in [
                r#"{"UtilSample":{"time":007,"utilisations":[-0.0],"queue_depths":[18446744073709551615],"queued":1,"rates":[1e308,2.5E+2]}}"#,
                r#"{"UtilSample":{"time":0.5,"utilisations":[],"queue_depths":[],"queued":0,"rates":[9999999999999999999999]}}"#,
            ] {
                assert!(check(line), "{line}");
            }
        }

        /// Short plain decimals decode through the exact-division fast
        /// path; every token must still carry the full parser's bits:
        /// `str::parse`'s, except that an integer `-0` is `+0.0`.
        #[test]
        fn probe_decimals_match_parse_bit_for_bit() {
            let mut tokens: Vec<String> = [
                "0",
                "-0",
                "0.0",
                "-0.000",
                "1",
                "0.1",
                "0.3",
                "-2.5",
                "9007199254740992",
                "9007199254740993",
                "900719925474099.3",
                "0.9007199254740993",
                "1234567890123456789",
                "12345678901234567890",
                "0.0000000000000000000001",
                "0.00000000000000000000001",
                "123.4560000000000000000",
                "4503599627370497.5",
            ]
            .iter()
            .map(|t| t.to_string())
            .collect();
            let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..20_000 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let digits = (lcg >> 59) as usize + 1; // 1..=32 digits
                let point = (lcg >> 40) as usize % (digits + 1);
                let mut t = String::new();
                if lcg & 1 == 1 {
                    t.push('-');
                }
                let mut r = lcg;
                for i in 0..digits {
                    if i == point && i > 0 {
                        t.push('.');
                    }
                    r = r.rotate_left(7) ^ 0x2545_f491_4f6c_dd1d;
                    t.push(char::from(b'0' + (r % 10) as u8));
                }
                tokens.push(t);
            }
            let mut scratch = UtilScratch::default();
            for t in &tokens {
                let line = format!(
                    r#"{{"UtilSample":{{"time":1.0,"utilisations":[],"queue_depths":[],"queued":0,"rates":[{t}]}}}}"#
                );
                assert!(probe_util_sample(line.as_bytes(), &mut scratch), "{t}");
                let mut expected: f64 = t.parse().unwrap();
                if expected == 0.0 && !t.contains('.') {
                    expected = 0.0;
                }
                assert_eq!(scratch.rates[0].to_bits(), expected.to_bits(), "{t}");
                assert!(check(&line), "{t}");
            }
        }

        #[test]
        fn probe_falls_back_outside_the_strict_grammar() {
            // All of these must return false — some are valid for the
            // full parser (reordered fields, null → NaN, escaped keys),
            // some are malformed, some are other record kinds. The
            // fallback classifies them; the probe only declines.
            for line in [
                // Reordered fields (valid JSON, oracle accepts).
                r#"{"UtilSample":{"utilisations":[],"time":1.0,"queue_depths":[],"queued":0,"rates":[]}}"#,
                // null time (oracle: NaN).
                r#"{"UtilSample":{"time":null,"utilisations":[],"queue_depths":[],"queued":0,"rates":[]}}"#,
                // Escaped key spelling (oracle accepts the same record).
                "{\"UtilSampl\\u0065\":{\"time\":1.0,\"utilisations\":[],\"queue_depths\":[],\"queued\":0,\"rates\":[]}}",
                // Float queue depth (oracle: malformed record).
                r#"{"UtilSample":{"time":1.0,"utilisations":[],"queue_depths":[1.5],"queued":0,"rates":[]}}"#,
                // Trailing garbage (oracle: malformed).
                r#"{"UtilSample":{"time":1.0,"utilisations":[],"queue_depths":[],"queued":0,"rates":[]}} x"#,
                // Different record kind.
                r#"{"RunEnd":{"time":1.0,"tuples_in":1,"tuples_out":1,"tuples_processed":1,"tuples_shed":0,"saturated":false}}"#,
                // Lax number tokens the oracle tokenizer accepts.
                r#"{"UtilSample":{"time":1.,"utilisations":[],"queue_depths":[],"queued":0,"rates":[]}}"#,
                // Not JSON at all.
                "%%% garbage %%%",
                "",
            ] {
                assert!(!check(line), "must fall back: {line}");
            }
        }

        #[test]
        fn scratch_is_reused_without_stale_values() {
            let mut scratch = UtilScratch::default();
            let wide = r#"{"UtilSample":{"time":1.0,"utilisations":[0.1,0.2,0.3],"queue_depths":[1,2,3],"queued":6,"rates":[5.0,6.0]}}"#;
            let narrow = r#"{"UtilSample":{"time":2.0,"utilisations":[0.9],"queue_depths":[4],"queued":4,"rates":[7.0]}}"#;
            assert!(probe_util_sample(wide.as_bytes(), &mut scratch));
            assert_eq!(scratch.utilisations.len(), 3);
            assert!(probe_util_sample(narrow.as_bytes(), &mut scratch));
            assert_eq!(scratch.utilisations, vec![0.9]);
            assert_eq!(scratch.queue_depths, vec![4]);
            assert_eq!(scratch.rates, vec![7.0]);
            assert_eq!(scratch.queued, 4);
        }
    }

    #[test]
    fn empty_stream_is_an_error_for_read_trace() {
        let dir = std::env::temp_dir().join("rod_replay_empty_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(read_trace(&path), Err(ReplayError::Empty)));
        std::fs::remove_file(&path).ok();
    }
}
