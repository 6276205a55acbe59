//! Streaming commands, served off the reactor.
//!
//! `REPLICATE` and `SUBSCRIBE` answer with a *stream* of frames —
//! multi-megabyte WAL shipping, open-ended delta pushes — that would
//! monopolize a reactor round. When one arrives, the reactor deregisters
//! the socket and hands it here together with any bytes already buffered
//! (undelivered outbox responses, and inbox bytes read past the
//! escalating frame). A streamer thread flips the socket to blocking mode
//! and serves exactly that one command: one replication round through
//! `ReplDone`, or one subscription session through `Unsubscribed`.
//!
//! Then it hands the connection back ([`resume`]): the socket returns to
//! non-blocking mode and the reactor adopts it as a fresh request
//! connection whose inbox holds every byte the streamer read past the
//! command, so frames pipelined behind `UNSUBSCRIBE` are answered in
//! order. Every non-streaming frame is therefore answered by the
//! reactor's `dispatch` alone. A disconnect, an I/O error, a protocol
//! violation or shutdown closes the connection instead.
//!
//! The two `set_nonblocking(false)` / `set_read_timeout` calls below are
//! the *only* blocking-I/O establishment on the server side, and they run
//! strictly after the poller registration is gone — the R11 lint's
//! allowlist pins them to this file.

use crate::protocol::{
    self, ErrorCode, Frame, ReadError, MAX_DELTA_ENTRIES, MAX_FRAME, REPL_CHUNK,
};
use crate::server::{Ctx, RESUME_TOKEN};
use cobra_mvcc::SubMsg;
use cobra_poll::Interest;
use cobra_stream::{commit_dir, shard_dir};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A request the reactor hands to a streamer thread. `dispatch` has
/// already validated it: the server is durable, the range is in bounds.
pub(crate) enum StreamCommand {
    /// One WAL-shipping round from `data_dir`.
    Replicate {
        data_dir: PathBuf,
        manifest: Vec<(String, u64)>,
    },
    /// One push session over keys `[lo, hi)`.
    Subscribe { lo: u32, hi: u32 },
}

/// Replays escalation-leftover bytes before reading from the socket.
struct PrefixedReader {
    leftover: Vec<u8>,
    pos: usize,
    inner: TcpStream,
}

impl Read for PrefixedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos < self.leftover.len() {
            let n = (self.leftover.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.leftover[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        self.inner.read(buf)
    }
}

/// Hands an escalated connection to a streamer thread. The thread is
/// registered with the context so shutdown can join it; if the spawn
/// itself fails the connection is simply dropped (closed). A follower
/// escalates once per replication round, so threads that have already
/// finished are reaped here to keep the registry bounded by the live ones.
pub(crate) fn escalate(
    ctx: &Arc<Ctx>,
    stream: TcpStream,
    leftover: Vec<u8>,
    pending_out: Vec<u8>,
    command: StreamCommand,
) {
    let thread_ctx = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name("cobra-serve-streamer".into())
        .spawn(move || serve_command(&thread_ctx, stream, leftover, pending_out, command));
    let mut streamers = ctx.streamers.lock().expect("streamer registry poisoned");
    streamers.threads.retain(|t| !t.is_finished());
    if let Ok(handle) = spawned {
        streamers.threads.push(handle);
    }
}

/// One streaming command's life: deliver the staged reactor responses,
/// serve the command, then hand the connection back to the reactor.
fn serve_command(
    ctx: &Ctx,
    stream: TcpStream,
    leftover: Vec<u8>,
    pending_out: Vec<u8>,
    command: StreamCommand,
) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let mut writer = stream;
    let mut scratch = Vec::new();
    // Responses the reactor staged for earlier pipelined frames but had
    // not flushed yet go out first, preserving response order.
    if !pending_out.is_empty() && writer.write_all(&pending_out).is_err() {
        return;
    }
    let rest = match command {
        // Replication only writes, so the unread bytes are exactly the
        // escalation leftover.
        StreamCommand::Replicate { data_dir, manifest } => {
            handle_replicate(ctx, &mut writer, &data_dir, &manifest, &mut scratch)
                .ok()
                .map(|()| leftover)
        }
        StreamCommand::Subscribe { lo, hi } => {
            handle_subscribe(ctx, &mut writer, leftover, lo, hi, &mut scratch)
        }
    };
    if let Some(rest) = rest {
        if !ctx.stopping() {
            resume(ctx, writer, rest);
        }
    }
}

/// Returns the connection to the reactor. The socket is registered under
/// [`RESUME_TOKEN`] with write interest *before* it is queued: a writable
/// socket fires at once and level triggering re-fires until the reactor
/// re-registers it under its own token, so the hand-back cannot be missed
/// however the two threads interleave. (A peer that leaves a full send
/// buffer unread delays the event until it reads; until then it could
/// not take an answer anyway.)
fn resume(ctx: &Ctx, stream: TcpStream, inbox: Vec<u8>) {
    if stream.set_nonblocking(true).is_err()
        || ctx
            .poller
            .register(&stream, RESUME_TOKEN, Interest::WRITE)
            .is_err()
    {
        return; // drop closes the socket
    }
    ctx.streamers
        .lock()
        .expect("streamer registry poisoned")
        .resumed
        .push((stream, inbox));
}

/// How a subscription session ended.
enum SessionEnd {
    /// Clean `Unsubscribe`: the connection resumes request/response mode.
    Unsubscribed,
    /// A request other than `Unsubscribe` arrived mid-session.
    Violation,
    /// Disconnect, I/O failure or shutdown.
    Gone,
}

/// SUBSCRIBE: one push session. This thread keeps the read half
/// (watching for `Unsubscribe`, EOF, or shutdown) and hands a clone of
/// the write half to a pusher thread that streams `Delta` / `Lagged`
/// frames; exactly one side writes at any time — the streamer only
/// writes again after the pusher has been torn down and joined.
///
/// Returns every byte read past `UNSUBSCRIBE` when the client left
/// cleanly, `None` when the connection must close.
fn handle_subscribe(
    ctx: &Ctx,
    writer: &mut TcpStream,
    leftover: Vec<u8>,
    lo: u32,
    hi: u32,
    scratch: &mut Vec<u8>,
) -> Option<Vec<u8>> {
    let read_half = writer.try_clone().ok()?;
    let push_writer = writer.try_clone().ok()?;
    let mut reader = BufReader::new(PrefixedReader {
        leftover,
        pos: 0,
        inner: read_half,
    });
    // Register BEFORE reading the baseline: an epoch published between
    // the two is then either enqueued for us or already part of the
    // baseline (the hook admits to the store before fanning out) — never
    // silently missed. The pusher drops queued epochs <= baseline.
    let sub = ctx.hub.subscribe(lo, hi, ctx.sub_queue_epochs);
    let baseline = match ctx.store.latest() {
        Some(snap) => snap.epoch(),
        None => ctx.pipeline.published_epoch(),
    };
    if protocol::write_frame(writer, &Frame::Subscribed { epoch: baseline }, scratch).is_err() {
        ctx.hub.unsubscribe(sub.id());
        return None;
    }
    let end = std::thread::scope(|s| {
        s.spawn(|| push_loop(ctx, &sub, push_writer, baseline));
        let end = loop {
            match protocol::read_frame(&mut reader, MAX_FRAME) {
                Ok(Some(Frame::Unsubscribe)) => break SessionEnd::Unsubscribed,
                // Any other request mid-subscription would interleave
                // its response with the pushes; refuse and hang up.
                Ok(Some(_)) => break SessionEnd::Violation,
                Err(ReadError::Idle) if !ctx.stopping() => {}
                // Disconnect (the unsubscribe-on-disconnect guarantee),
                // I/O or framing failure, shutdown.
                _ => break SessionEnd::Gone,
            }
        };
        // Closing the subscription ends the pusher; the scope join waits
        // for it to drain and exit before this thread writes again.
        ctx.hub.unsubscribe(sub.id());
        end
    });
    match end {
        SessionEnd::Unsubscribed => {
            let bye = Frame::Unsubscribed {
                epoch: ctx.pipeline.published_epoch(),
            };
            protocol::write_frame(writer, &bye, scratch).ok()?;
            // The bytes read past UNSUBSCRIBE: what the BufReader holds,
            // then the escalation leftover it has not replayed yet.
            let mut rest = reader.buffer().to_vec();
            let prefixed = reader.into_inner();
            rest.extend_from_slice(&prefixed.leftover[prefixed.pos..]);
            Some(rest)
        }
        SessionEnd::Violation => {
            let response = Frame::Error {
                code: ErrorCode::Malformed,
                detail: "only UNSUBSCRIBE is valid while subscribed".to_string(),
            };
            let _ = protocol::write_frame(writer, &response, scratch);
            None
        }
        SessionEnd::Gone => None,
    }
}

/// Streams one subscriber's queue to its socket: per-epoch `Delta` frames
/// (chunked at [`MAX_DELTA_ENTRIES`]), `Lagged` on overflow, exit on
/// close. An epoch with no changes in the subscribed range still ships an
/// empty `Delta` — delivery is gap-free per epoch, which is what lets the
/// client assert `to_epoch == last + 1` and trust pure delta replay.
fn push_loop(ctx: &Ctx, sub: &cobra_mvcc::Subscriber<u64>, mut writer: TcpStream, baseline: u64) {
    let mut scratch = Vec::new();
    let mut prev = baseline;
    loop {
        match sub.next_msg(ctx.read_timeout) {
            SubMsg::Delta(delta) => {
                // A publish racing the registration can enqueue an epoch
                // the baseline snapshot already covers; skip it.
                if delta.epoch() <= prev {
                    continue;
                }
                let entries = delta.entries();
                let mut at = 0usize;
                loop {
                    let end = (at + MAX_DELTA_ENTRIES as usize).min(entries.len());
                    let frame = Frame::Delta {
                        from_epoch: prev,
                        to_epoch: delta.epoch(),
                        done: end == entries.len(),
                        entries: entries[at..end].to_vec(),
                    };
                    if protocol::write_frame(&mut writer, &frame, &mut scratch).is_err() {
                        ctx.hub.unsubscribe(sub.id());
                        return;
                    }
                    if end == entries.len() {
                        break;
                    }
                    at = end;
                }
                prev = delta.epoch();
            }
            SubMsg::Lagged { resume_epoch } => {
                if resume_epoch > prev {
                    prev = resume_epoch;
                    let frame = Frame::Lagged { resume_epoch };
                    if protocol::write_frame(&mut writer, &frame, &mut scratch).is_err() {
                        ctx.hub.unsubscribe(sub.id());
                        return;
                    }
                }
            }
            SubMsg::Closed => return,
            SubMsg::Idle => {
                if ctx.stopping() {
                    // close_all() already fired on shutdown; this is the
                    // belt-and-braces exit if stop raced the registration.
                    return;
                }
            }
        }
    }
}

/// REPLICATE: one round of WAL shipping. The follower's manifest says how
/// many bytes of each file it already has; this streams the missing
/// suffixes as `Segment` frames and finishes with `ReplDone`.
///
/// Ordering is the crux. The commit log is captured (read into memory)
/// *before* the shard logs and checkpoints are listed and streamed, and
/// shipped *last*. Shard bytes written after the capture may reach the
/// follower, but the commit records that would make them observable
/// cannot — so on the follower, exactly as on the primary, observable
/// implies durable, and a promotion recovers a consistent prefix.
///
/// An `Err` means the connection died mid-stream; the round's partial
/// shard bytes on the follower are harmless (uncommitted tail).
fn handle_replicate(
    ctx: &Ctx,
    writer: &mut TcpStream,
    data_dir: &Path,
    manifest: &[(String, u64)],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    let have: HashMap<&str, u64> = manifest.iter().map(|(n, l)| (n.as_str(), *l)).collect();
    let round = (|| -> io::Result<(u64, Vec<CommitCapture>, Vec<cobra_wal::ShipFile>)> {
        // Capture FIRST: the committed epoch and the commit-log bytes that
        // prove it. Everything read below may be newer; never older.
        let committed = ctx.pipeline.committed_epoch();
        let mut commit_files = Vec::new();
        for f in cobra_wal::segment_files(&commit_dir(data_dir))? {
            let from = have.get(format!("commit/{}", f.name).as_str()).copied();
            let bytes = read_suffix(&f.path, from.unwrap_or(0))?;
            commit_files.push((format!("commit/{}", f.name), from.unwrap_or(0), bytes));
        }
        // List (not read) the shard logs and checkpoints after the capture.
        let mut files = Vec::new();
        for shard in 0..ctx.pipeline.num_shards() {
            let sdir = shard_dir(data_dir, shard);
            for mut f in cobra_wal::segment_files(&sdir)? {
                f.name = format!("shard-{shard:03}/{}", f.name);
                files.push(f);
            }
        }
        files.extend(cobra_wal::checkpoint_files(data_dir)?);
        Ok((committed, commit_files, files))
    })();
    let (committed, commit_files, files) = match round {
        Ok(r) => r,
        Err(e) => {
            let response = Frame::Error {
                code: ErrorCode::Internal,
                detail: format!("replication listing failed: {e}"),
            };
            return protocol::write_frame(writer, &response, scratch);
        }
    };

    let mut shipped_files: u32 = 0;
    let mut shipped_bytes: u64 = 0;
    // Shard logs and checkpoints stream straight from disk, chunked.
    for f in files {
        let mut offset = have.get(f.name.as_str()).copied().unwrap_or(0);
        let mut touched = false;
        // A file that vanished between listing and read (checkpoint GC)
        // just ends the loop via the Err arm.
        while let Ok(chunk) = cobra_wal::read_chunk(&f.path, offset, REPL_CHUNK) {
            if chunk.is_empty() {
                break;
            }
            let len = chunk.len() as u64;
            let frame = Frame::Segment {
                name: f.name.clone(),
                offset,
                bytes: chunk,
            };
            protocol::write_frame(writer, &frame, scratch)?;
            offset += len;
            shipped_bytes += len;
            touched = true;
        }
        if touched {
            shipped_files += 1;
        }
    }
    // The captured commit-log bytes go LAST (see the ordering note above).
    for (name, offset, bytes) in commit_files {
        if bytes.is_empty() {
            continue;
        }
        shipped_files += 1;
        let mut at = offset;
        for chunk in bytes.chunks(REPL_CHUNK) {
            let frame = Frame::Segment {
                name: name.clone(),
                offset: at,
                bytes: chunk.to_vec(),
            };
            protocol::write_frame(writer, &frame, scratch)?;
            at += chunk.len() as u64;
            shipped_bytes += chunk.len() as u64;
        }
    }
    // ordering: Relaxed — stats counters.
    ctx.counters.repl_rounds.fetch_add(1, Ordering::Relaxed);
    ctx.counters
        .repl_bytes_shipped
        .fetch_add(shipped_bytes, Ordering::Relaxed); // ordering: stats counter
    let done = Frame::ReplDone {
        epoch: committed,
        files: shipped_files,
        bytes: shipped_bytes,
    };
    protocol::write_frame(writer, &done, scratch)
}

/// A captured commit-log suffix: wire name, start offset, bytes.
type CommitCapture = (String, u64, Vec<u8>);

/// Reads `path` from `offset` to EOF (the commit-log capture).
fn read_suffix(path: &Path, offset: u64) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut at = offset;
    loop {
        let chunk = cobra_wal::read_chunk(path, at, REPL_CHUNK)?;
        if chunk.is_empty() {
            return Ok(out);
        }
        at += chunk.len() as u64;
        out.extend_from_slice(&chunk);
    }
}
