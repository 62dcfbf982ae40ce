//! Length-prefixed framing over a TCP stream.
//!
//! Signaling is low-bandwidth but demands reliability and FIFO order
//! (paper §I), which TCP provides; framing turns the byte stream back into
//! discrete signals. Each frame is a 32-bit big-endian length followed by
//! the payload. A maximum frame size bounds memory against malformed or
//! malicious peers, and is refused at the writer as at the reader.
//!
//! Frames move in *runs*, whole frames back to back as they are on the
//! wire: [`Framed::read_run`] returns every whole frame one read brought,
//! [`frames`] walks a run's payloads in place, and [`put_frame`] appends a
//! frame to a run a writer sends with one [`Framed::write_run`].

use bytes::{Buf, BytesMut};
use tokio::io::{AsyncReadExt, AsyncWriteExt};

/// Upper bound on a frame payload; signaling messages are tiny, so
/// anything near this is garbage or an attack.
pub const MAX_FRAME: usize = 64 * 1024;

/// Errors from the framed transport.
#[derive(Debug)]
pub enum FrameError {
    Io(std::io::Error),
    TooLarge(usize),
    /// The peer closed the connection mid-frame.
    UnexpectedEof,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::UnexpectedEof => f.write_str("connection closed mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A framed, buffered connection.
pub struct Framed<S> {
    stream: S,
    read_buf: BytesMut,
}

impl<S> Framed<S> {
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            read_buf: BytesMut::with_capacity(4 * 1024),
        }
    }

    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Split into the stream and any bytes already read past the last
    /// frame boundary. Transferring ownership of a connection mid-stream
    /// (e.g. handing an accepted socket from the handshake task to the
    /// per-connection reader) must carry this buffer along or frames that
    /// arrived piggybacked on the handshake are silently lost.
    pub fn into_parts(self) -> (S, BytesMut) {
        (self.stream, self.read_buf)
    }

    pub fn from_parts(stream: S, read_buf: BytesMut) -> Self {
        Self { stream, read_buf }
    }
}

impl<S: AsyncWriteExt + Unpin> Framed<S> {
    /// Write one frame (length prefix + payload) and flush.
    pub async fn write_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        let mut run = Vec::with_capacity(4 + payload.len());
        put_frame(&mut run, |b| b.extend_from_slice(payload))?;
        self.write_run(&run).await
    }

    /// Write a batch of frames as one buffered write and a single flush;
    /// the bytes on the wire are identical to writing each frame
    /// individually. Refuses the whole batch if one payload is oversized.
    pub async fn write_frames(&mut self, payloads: &[bytes::Bytes]) -> Result<(), FrameError> {
        let total: usize = payloads.iter().map(|p| p.len() + 4).sum();
        let mut run = Vec::with_capacity(total);
        for payload in payloads {
            put_frame(&mut run, |b| b.extend_from_slice(payload))?;
        }
        self.write_run(&run).await
    }

    /// Write a run of whole frames, as [`put_frame`] builds one, in one
    /// write and a single flush. When a writer queue backs up under load,
    /// this amortizes the per-frame syscalls over the whole run.
    pub async fn write_run(&mut self, run: &[u8]) -> Result<(), FrameError> {
        self.stream.write_all(run).await?;
        self.stream.flush().await?;
        Ok(())
    }
}

impl<S: AsyncReadExt + Unpin> Framed<S> {
    /// Read the next frame. `Ok(None)` on clean EOF at a frame boundary.
    pub async fn read_frame(&mut self) -> Result<Option<bytes::Bytes>, FrameError> {
        let Some(len) = self.fill(false).await? else {
            return Ok(None);
        };
        self.read_buf.advance(4);
        Ok(Some(self.read_buf.split_to(len - 4).freeze()))
    }

    /// Every whole frame the buffer holds, reading once first if it holds
    /// none: one run, length prefixes included, for [`frames`] to walk.
    /// `Ok(None)` on clean EOF at a frame boundary. The frames ahead of an
    /// oversized length are a run of their own; the length is the next
    /// call's error.
    pub async fn read_run(&mut self) -> Result<Option<bytes::Bytes>, FrameError> {
        let Some(len) = self.fill(true).await? else {
            return Ok(None);
        };
        Ok(Some(self.read_buf.split_to(len).freeze()))
    }

    /// Read until the buffer starts with a whole frame, and return the
    /// length of the whole frames at its front: the first one, or `all`.
    /// `None` on clean EOF.
    async fn fill(&mut self, all: bool) -> Result<Option<usize>, FrameError> {
        loop {
            let (whole, missing) = self.whole(all)?;
            if whole > 0 {
                return Ok(Some(whole));
            }
            // Room for the rest of the first frame at least, so a read
            // never finds the buffer full.
            self.read_buf.reserve(missing);
            if self.stream.read_buf(&mut self.read_buf).await? == 0 {
                return if self.read_buf.is_empty() {
                    Ok(None)
                } else {
                    Err(FrameError::UnexpectedEof)
                };
            }
        }
    }

    /// The length of the whole frames at the front of the buffer (the
    /// first, or `all`), and with none, how many bytes the first one
    /// lacks. A length over [`MAX_FRAME`] is refused before any buffer
    /// grows for it.
    fn whole(&self, all: bool) -> Result<(usize, usize), FrameError> {
        let buf = &self.read_buf[..];
        let mut at = 0;
        while let Some(prefix) = buf.get(at..at + 4) {
            let len = u32::from_be_bytes(prefix.try_into().expect("four bytes")) as usize;
            if len > MAX_FRAME {
                return if at > 0 {
                    Ok((at, 0))
                } else {
                    Err(FrameError::TooLarge(len))
                };
            }
            if buf.len() < at + 4 + len {
                return Ok((at, at + 4 + len - buf.len()));
            }
            at += 4 + len;
            if !all {
                break;
            }
        }
        Ok((at, 4usize.saturating_sub(buf.len())))
    }
}

/// Append one frame to `run` as it goes on the wire: a length prefix, then
/// the payload `encode` appends. A payload over [`MAX_FRAME`] is taken back
/// out, leaving `run` as it was, and refused.
pub fn put_frame(run: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), FrameError> {
    let start = run.len();
    run.extend_from_slice(&[0; 4]);
    encode(run);
    let len = run.len() - start - 4;
    if len > MAX_FRAME {
        run.truncate(start);
        return Err(FrameError::TooLarge(len));
    }
    run[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// The payloads of a run's frames, in order. A run is what
/// [`Framed::read_run`] returns or [`put_frame`] builds: whole frames; the
/// walk stops at any byte that does not begin one.
pub fn frames(run: &[u8]) -> Frames<'_> {
    Frames(run)
}

/// [`frames`].
pub struct Frames<'a>(&'a [u8]);

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let prefix = self.0.get(..4)?;
        let len = u32::from_be_bytes(prefix.try_into().expect("four bytes")) as usize;
        let frame = self.0.get(4..4 + len)?;
        self.0 = &self.0[4 + len..];
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::io::duplex;

    #[tokio::test]
    async fn frames_round_trip() {
        // Buffer must hold all three frames: they are written before any
        // read happens on this single task.
        let (a, b) = duplex(4096);
        let mut wa = Framed::new(a);
        let mut rb = Framed::new(b);
        wa.write_frame(b"hello").await.unwrap();
        wa.write_frame(b"").await.unwrap();
        wa.write_frame(&[7u8; 300]).await.unwrap();
        assert_eq!(rb.read_frame().await.unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(rb.read_frame().await.unwrap().unwrap().as_ref(), b"");
        assert_eq!(rb.read_frame().await.unwrap().unwrap().len(), 300);
    }

    #[tokio::test]
    async fn batched_frames_match_individual_writes() {
        // A batch write must put byte-identical frames on the wire: the
        // reader can't tell whether the writer batched or not.
        let payloads: Vec<bytes::Bytes> = vec![
            bytes::Bytes::copy_from_slice(b"hello"),
            bytes::Bytes::new(),
            bytes::Bytes::copy_from_slice(&[7u8; 300]),
        ];
        let (a, b) = duplex(4096);
        let mut wa = Framed::new(a);
        wa.write_frames(&payloads).await.unwrap();
        let mut rb = Framed::new(b);
        for p in &payloads {
            assert_eq!(rb.read_frame().await.unwrap().unwrap().as_ref(), p.as_ref());
        }

        let huge = vec![bytes::Bytes::copy_from_slice(&vec![0u8; MAX_FRAME + 1])];
        let (a, _b) = duplex(64);
        let mut wa = Framed::new(a);
        assert!(matches!(
            wa.write_frames(&huge).await,
            Err(FrameError::TooLarge(_))
        ));
    }

    #[tokio::test]
    async fn clean_eof_returns_none() {
        let (a, b) = duplex(64);
        let mut wa = Framed::new(a);
        wa.write_frame(b"bye").await.unwrap();
        drop(wa);
        let mut rb = Framed::new(b);
        assert!(rb.read_frame().await.unwrap().is_some());
        assert!(rb.read_frame().await.unwrap().is_none());
    }

    #[tokio::test]
    async fn eof_mid_frame_is_an_error() {
        let (mut a, b) = duplex(64);
        // Write a length prefix promising 10 bytes, deliver 3, then close.
        a.write_u32(10).await.unwrap();
        a.write_all(b"abc").await.unwrap();
        drop(a);
        let mut rb = Framed::new(b);
        assert!(matches!(
            rb.read_frame().await,
            Err(FrameError::UnexpectedEof)
        ));
    }

    #[tokio::test]
    async fn oversized_frame_rejected_without_allocation() {
        let (mut a, b) = duplex(64);
        a.write_u32((MAX_FRAME + 1) as u32).await.unwrap();
        let mut rb = Framed::new(b);
        assert!(matches!(
            rb.read_frame().await,
            Err(FrameError::TooLarge(_))
        ));
    }

    #[tokio::test]
    async fn writer_rejects_oversized_payload() {
        let (a, _b) = duplex(64);
        let mut wa = Framed::new(a);
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            wa.write_frame(&huge).await,
            Err(FrameError::TooLarge(_))
        ));
    }

    #[tokio::test]
    async fn many_small_frames_stream_through() {
        let (a, b) = duplex(64); // tiny duplex buffer forces backpressure
        let writer = tokio::spawn(async move {
            let mut wa = Framed::new(a);
            for i in 0..200u32 {
                wa.write_frame(&i.to_be_bytes()).await.unwrap();
            }
        });
        let mut rb = Framed::new(b);
        for i in 0..200u32 {
            let f = rb.read_frame().await.unwrap().unwrap();
            assert_eq!(f.as_ref(), &i.to_be_bytes());
        }
        writer.await.unwrap();
    }
}
