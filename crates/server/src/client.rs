//! A blocking client for the server protocol — what the loadgen binary,
//! the perf_ledger server workloads, and the test suites speak.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mcdbr_dispatch::wire::{self, Frame, ReplyCode, WireError, WireResult};
use mcdbr_exec::QueryResultSamples;
use mcdbr_mcdb::MonteCarloQuery;
use mcdbr_prng::Pcg64;

/// One server response to a query.
#[derive(Debug)]
pub enum QueryReply {
    /// The query ran; bit-exact samples plus the per-query counters.
    Ok {
        /// Per-group, per-repetition samples.
        samples: QueryResultSamples,
        /// The server's per-query counters.
        stats: wire::QueryStats,
    },
    /// The server turned the query away (admission, drain, or failure).
    Rejected {
        /// Why.
        code: ReplyCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A connected, handshaken client session.
///
/// Tracks the wire bytes it has exchanged ([`ServerClient::wire_bytes_sent`]
/// / [`ServerClient::wire_bytes_received`]), which the loadgen surfaces per
/// query — the client-side view of how chatty the protocol is.
#[derive(Debug)]
pub struct ServerClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    bytes_sent: u64,
    bytes_received: u64,
}

impl ServerClient {
    /// Connect and run the `Hello` handshake (client speaks first).
    pub fn connect(addr: impl ToSocketAddrs) -> WireResult<ServerClient> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = ServerClient {
            reader,
            writer,
            bytes_sent: 0,
            bytes_received: 0,
        };
        client.write(&wire::encode_hello())?;
        client.writer.flush()?;
        match client.read()? {
            Frame::Hello { magic, version } if magic == wire::WIRE_MAGIC => {
                if version != wire::WIRE_VERSION {
                    return Err(WireError::VersionMismatch {
                        ours: wire::WIRE_VERSION,
                        theirs: version,
                    });
                }
            }
            Frame::Hello { magic, .. } => return Err(WireError::BadMagic(magic)),
            Frame::Error { message } => return Err(WireError::Remote(message)),
            _ => return Err(WireError::Corrupt("expected Hello from server".into())),
        }
        Ok(client)
    }

    fn write(&mut self, payload: &[u8]) -> WireResult<()> {
        self.bytes_sent += wire::write_frame(&mut self.writer, payload)?;
        Ok(())
    }

    fn read(&mut self) -> WireResult<Frame> {
        let (payload, n) = wire::read_frame(&mut self.reader)?.ok_or(WireError::Truncated {
            what: "server response",
        })?;
        self.bytes_received += n;
        wire::decode_frame(&payload)
    }

    /// Total wire bytes this client has written (length prefixes included)
    /// since connecting, handshake and all.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total wire bytes this client has read since connecting.
    pub fn wire_bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Run `query` for `reps` repetitions under `master_seed`.
    ///
    /// A [`QueryReply::Rejected`] with [`ReplyCode::Busy`] is retryable;
    /// wire-level errors (the `Err` branch) mean the connection is gone.
    pub fn query(
        &mut self,
        query: &MonteCarloQuery,
        reps: usize,
        master_seed: u64,
    ) -> WireResult<QueryReply> {
        let payload = wire::encode_query(
            &query.plan,
            &query.aggregate,
            query.final_predicate.as_ref(),
            &query.group_by,
            reps as u64,
            master_seed,
        )?;
        self.write(&payload)?;
        self.writer.flush()?;
        match self.read()? {
            Frame::QueryResult(samples) => match self.read()? {
                Frame::QueryStats(stats) => Ok(QueryReply::Ok { samples, stats }),
                _ => Err(WireError::Corrupt(
                    "expected QueryStats after QueryResult".into(),
                )),
            },
            Frame::ErrorReply { code, message } => Ok(QueryReply::Rejected { code, message }),
            _ => Err(WireError::Corrupt("unexpected reply to Query".into())),
        }
    }

    /// Like [`ServerClient::query`], but retry `Busy` rejections until
    /// admitted (reconnecting is not needed — `Busy` leaves the connection
    /// healthy), waiting out a capped exponential backoff between attempts
    /// (2 ms doubling to a 200 ms cap, each wait a seeded uniform draw
    /// below it).  Its jitter stream is salted by `master_seed`, so
    /// concurrent clients retrying the same server decorrelate instead of
    /// stampeding in lockstep.  Only `Busy` is retried: `Timeout`,
    /// `ShuttingDown`, and the rest are policy decisions the caller owns.
    pub fn query_retrying(
        &mut self,
        query: &MonteCarloQuery,
        reps: usize,
        master_seed: u64,
    ) -> WireResult<QueryReply> {
        let mut attempt = 0u32;
        loop {
            match self.query(query, reps, master_seed)? {
                QueryReply::Rejected {
                    code: ReplyCode::Busy,
                    ..
                } => {
                    std::thread::sleep(busy_backoff(attempt, master_seed));
                    attempt += 1;
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Fetch the server-wide counter snapshot.
    pub fn server_stats(&mut self) -> WireResult<wire::ServerStats> {
        self.write(&wire::encode_stats_request())?;
        self.writer.flush()?;
        match self.read()? {
            Frame::ServerStats(stats) => Ok(stats),
            _ => Err(WireError::Corrupt(
                "unexpected reply to StatsRequest".into(),
            )),
        }
    }

    /// Ask the server to begin a graceful drain, consuming the session.
    pub fn shutdown(mut self) -> WireResult<()> {
        self.write(&wire::encode_shutdown())?;
        self.writer.flush()?;
        Ok(())
    }
}

/// The sleep before `Busy` retry `attempt` (0-based): a uniform draw from
/// `[0, min(200 ms, 2 ms << attempt)]`, taken from
/// `Pcg64::with_stream(JITTER_SEED ^ salt, attempt)` so a retry schedule
/// replays from its seed.
pub(crate) fn busy_backoff(attempt: u32, salt: u64) -> Duration {
    const JITTER_SEED: u64 = 0x6d63_6462; // "mcdb"
    let cap_ms = 2u64.saturating_mul(1 << attempt.min(20)).min(200);
    let jitter = Pcg64::with_stream(JITTER_SEED ^ salt, u64::from(attempt)).next_f64();
    Duration::from_micros((cap_ms as f64 * 1000.0 * jitter) as u64)
}
