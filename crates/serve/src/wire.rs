//! The framed wire codec: 4-byte big-endian length prefix + UTF-8 payload.
//!
//! ```text
//! +----+----+----+----+----------------------+
//! | len (u32, big-endian) | len bytes, UTF-8 |
//! +----+----+----+----+----------------------+
//! ```
//!
//! The payload is a serde-shim text document (see `serde::text`) — the
//! same dependency-free codec the checkpoints use — so the whole protocol
//! rides on `std` alone, matching `nada-llm-http`'s discipline. Frames
//! larger than [`MAX_FRAME`] are rejected *before* allocating, so a
//! corrupt or hostile length prefix cannot balloon memory.
//!
//! [`read_frame`] distinguishes three ends of input:
//!
//! * clean EOF at a frame boundary → `Ok(None)` (peer hung up);
//! * idle timeout before the first header byte → [`WireError::Timeout`]
//!   (retryable — daemon connection threads poll their stop flag on it);
//! * anything mid-frame (truncation, timeout, I/O error) → hard error.

use std::io::{ErrorKind, Read, Write};

/// Hard cap on one frame's payload (8 MiB — far above any job spec or
/// result this protocol carries).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// What can go wrong on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying stream failed or ended mid-frame.
    Io(String),
    /// A length prefix exceeded [`MAX_FRAME`]; the frame was not read.
    Oversized(usize),
    /// The payload was not valid UTF-8.
    Encoding(String),
    /// The read timed out before a frame started (idle connection).
    /// Retryable: no bytes were consumed.
    Timeout,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "wire I/O error: {msg}"),
            WireError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Encoding(msg) => write!(f, "frame payload is not UTF-8: {msg}"),
            WireError::Timeout => write!(f, "timed out waiting for a frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// Writes one frame: length prefix and payload in a single write, then
/// flush. One write per frame matters on TCP: a separate 4-byte header
/// write leaves the payload waiting behind Nagle's algorithm until the
/// peer's delayed ACK (up to 40 ms).
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), WireError> {
    let len = payload.len();
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)
        .and_then(|_| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary;
/// [`WireError::Timeout`] if the stream timed out before any header byte
/// arrived (nothing consumed — safe to retry).
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Io("EOF inside a frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if got == 0 && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Err(WireError::Timeout)
            }
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(WireError::Io("EOF inside a frame payload".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| WireError::Encoding(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most one byte per `read` call — the
    /// worst-case split-read schedule.
    struct OneByteReader<'d> {
        data: &'d [u8],
        at: usize,
    }

    impl Read for OneByteReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        for (i, payload) in ["ping", "", "π ≠ \"3\"\n"].into_iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(
                w.writes,
                i + 1,
                "frame {payload:?} took more than one write"
            );
        }
        let mut r = std::io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("ping"));
    }

    #[test]
    fn frames_round_trip_byte_at_a_time() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "π ≠ \"3\"\n").unwrap();
        let mut r = OneByteReader { data: &buf, at: 0 };
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("π ≠ \"3\"\n"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frames_are_rejected_without_reading_the_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r),
            Err(WireError::Oversized(u32::MAX as usize))
        );
        assert!(write_frame(&mut Vec::new(), &"x".repeat(MAX_FRAME + 1)).is_err());
    }

    #[test]
    fn truncation_inside_a_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "full payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = std::io::Cursor::new(&buf[..cut]);
            assert!(
                read_frame(&mut r).is_err(),
                "cut at {cut} must not look like a clean EOF"
            );
        }
    }
}
