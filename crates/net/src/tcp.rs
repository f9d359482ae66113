//! TCP transport: the same wire format over real sockets.
//!
//! The paper's distributed mode runs participants as separate processes
//! connected by gRPC; this module provides the equivalent substrate on
//! `std::net`: length-prefixed wire frames, a server-side [`TcpHub`] that
//! accepts one connection per client and funnels decoded traffic into a
//! single event queue, and a client-side [`TcpPeer`] /
//! [`ResilientPeer`]. The framing is trivial by design — `u32` little-endian
//! length followed by the [`crate::wire`]-encoded message — so any process
//! speaking the neutral format can join a course.
//!
//! # Framing
//!
//! Each frame is built in one buffer — length prefix reserved, message
//! encoded behind it, prefix patched in — and handed to the socket in a
//! single `write_all`, and every socket (hub-accepted and client-connected)
//! sets `TCP_NODELAY`. The two go together: with the prefix and body as
//! separate writes, Nagle's algorithm holds the body back until the peer's
//! delayed ACK for the 4-byte prefix arrives (tens of milliseconds per
//! frame on Linux loopback), so every round of a course waits on a kernel
//! timer. With one write per frame there is nothing left for Nagle to
//! coalesce, so it is switched off unconditionally. On the receive side each
//! connection keeps one body buffer and reuses its capacity across frames;
//! the [`MAX_FRAME_BYTES`] check runs before any resize, so a hostile length
//! prefix cannot make the reader allocate.
//!
//! # Fault tolerance
//!
//! The hub is built for unreliable clients:
//!
//! * **Registration at accept time.** A connection is addressable as soon as
//!   its first frame (the join handshake) has been read; [`PendingHub::
//!   accept`] returns only after every expected participant has completed
//!   that handshake, so a `send` immediately after `accept` can never hit
//!   `UnknownReceiver`.
//! * **Liveness.** Reader threads run with a read deadline
//!   (`set_read_timeout`); a dead connection surfaces as
//!   [`HubEvent::Disconnected`] on the incoming queue instead of a silently
//!   dying thread. Dropping the hub shuts every registered stream down, so
//!   its reader threads exit on EOF at once rather than at their next
//!   deadline tick (and stop competing for cores with the next course).
//! * **Rejoin.** The hub keeps accepting connections for its whole lifetime.
//!   A reconnecting client re-identifies itself with a
//!   [`MessageKind::Rejoin`] handshake; the hub swaps in the new write half,
//!   suppresses the stale connection's disconnect report, and surfaces
//!   [`HubEvent::Rejoined`].

use crate::fault::{FaultAction, FaultState, SendOutcome};
use crate::message::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use crate::wire::{decode_message, put_message, CodecError};
use bytes::{BufMut, BytesMut};
use fs_monitor::{counters, MonitorHandle};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data even if a writer thread panicked while
/// holding it (a poisoned map is still a usable map).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Errors from the TCP transport.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent bytes the wire codec rejects.
    Codec(CodecError),
    /// A frame exceeded the sanity limit.
    FrameTooLarge(u32),
    /// No connection is registered for the receiver.
    UnknownReceiver(ParticipantId),
    /// The incoming queue has shut down.
    Closed,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "io error: {e}"),
            TcpError::Codec(e) => write!(f, "codec error: {e}"),
            TcpError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TcpError::UnknownReceiver(id) => write!(f, "no connection for participant {id}"),
            TcpError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<io::Error> for TcpError {
    fn from(e: io::Error) -> Self {
        TcpError::Io(e)
    }
}

impl From<CodecError> for TcpError {
    fn from(e: CodecError) -> Self {
        TcpError::Codec(e)
    }
}

/// Upper bound on a single frame (a model of ~16M f32 parameters).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Writes one length-prefixed wire frame with a single `write_all`.
pub fn write_frame<W: Write>(stream: &mut W, msg: &Message) -> Result<(), TcpError> {
    write_frame_monitored(stream, msg, &MonitorHandle::null())
}

/// [`write_frame`], counting the real bytes put on the socket (4-byte length
/// prefix + encoded frame) into the monitor's `wire.*` counters.
pub fn write_frame_monitored<W: Write>(
    stream: &mut W,
    msg: &Message,
    monitor: &MonitorHandle,
) -> Result<(), TcpError> {
    let mut frame = BytesMut::with_capacity(4 + msg.wire_bytes());
    frame.put_u32_le(0); // length placeholder, patched below
    put_message(&mut frame, msg);
    let len = u32::try_from(frame.len() - 4).unwrap_or(u32::MAX);
    if len > MAX_FRAME_BYTES {
        return Err(TcpError::FrameTooLarge(len));
    }
    if let Some(prefix) = frame.get_mut(..4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
    stream.write_all(&frame)?;
    monitor.add(counters::WIRE_FRAMES_OUT, 1);
    monitor.add(counters::WIRE_BYTES_OUT, 4 + u64::from(len));
    Ok(())
}

/// Reads one length-prefixed wire frame (blocking).
pub fn read_frame(stream: &mut TcpStream) -> Result<Message, TcpError> {
    read_frame_monitored(stream, &MonitorHandle::null())
}

/// [`read_frame`], counting the real bytes taken off the socket into the
/// monitor's `wire.*` counters.
pub fn read_frame_monitored(
    stream: &mut TcpStream,
    monitor: &MonitorHandle,
) -> Result<Message, TcpError> {
    read_frame_into(stream, &mut Vec::new(), monitor)
}

/// Reads one frame, using `body` as the receive buffer: its capacity is
/// reused across calls, and grows only after the length prefix has passed
/// the [`MAX_FRAME_BYTES`] check.
fn read_frame_into(
    stream: &mut impl Read,
    body: &mut Vec<u8>,
    monitor: &MonitorHandle,
) -> Result<Message, TcpError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(TcpError::FrameTooLarge(len));
    }
    // no clear(): the bytes kept are overwritten by read_exact, so only a
    // grown tail is zero-filled
    body.resize(len as usize, 0);
    stream.read_exact(body)?;
    let msg = decode_message(body)?;
    monitor.add(counters::WIRE_FRAMES_IN, 1);
    monitor.add(counters::WIRE_BYTES_IN, 4 + u64::from(len));
    Ok(msg)
}

/// An incremental frame reader that survives read deadlines.
///
/// With `set_read_timeout` armed, a blocking `read_exact` could fire its
/// deadline halfway through a frame and desynchronize the stream. This
/// reader accumulates partial header/body bytes across deadline ticks:
/// [`FrameReader::poll`] returns `Ok(None)` on a tick with no complete frame
/// and never loses position. `body` is the connection's receive buffer; its
/// capacity is reused from frame to frame.
#[derive(Default)]
struct FrameReader {
    header: [u8; 4],
    header_have: usize,
    body: Vec<u8>,
    body_have: usize,
}

fn is_deadline(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl FrameReader {
    fn poll(
        &mut self,
        stream: &mut impl Read,
        monitor: &MonitorHandle,
    ) -> Result<Option<Message>, TcpError> {
        loop {
            if self.header_have < 4 {
                match stream.read(&mut self.header[self.header_have..]) {
                    Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                    Ok(n) => {
                        self.header_have += n;
                        if self.header_have == 4 {
                            let len = u32::from_le_bytes(self.header);
                            if len > MAX_FRAME_BYTES {
                                return Err(TcpError::FrameTooLarge(len));
                            }
                            self.body.resize(len as usize, 0);
                            self.body_have = 0;
                        }
                    }
                    Err(e) if is_deadline(&e) => return Ok(None),
                    Err(e) => return Err(e.into()),
                }
            } else if self.body_have < self.body.len() {
                match stream.read(&mut self.body[self.body_have..]) {
                    Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                    Ok(n) => self.body_have += n,
                    Err(e) if is_deadline(&e) => return Ok(None),
                    Err(e) => return Err(e.into()),
                }
            } else {
                let msg = decode_message(&self.body)?;
                monitor.add(counters::WIRE_FRAMES_IN, 1);
                monitor.add(counters::WIRE_BYTES_IN, 4 + self.body.len() as u64);
                self.header_have = 0;
                self.body_have = 0;
                return Ok(Some(msg));
            }
        }
    }
}

/// What the hub's incoming queue delivers: decoded traffic plus liveness
/// transitions observed by the per-connection reader threads.
#[derive(Debug)]
pub enum HubEvent {
    /// A decoded application message.
    Message(Message),
    /// A registered connection died (EOF, reset, or a fatal read error).
    Disconnected(ParticipantId),
    /// A participant completed a [`MessageKind::Rejoin`] handshake over a
    /// fresh connection; its write half has been swapped in.
    Rejoined(ParticipantId),
    /// A connection sent bytes the wire codec rejects (`None` when it died
    /// before identifying itself).
    Codec(Option<ParticipantId>, String),
}

/// A registered write half, generation-stamped so a stale connection's
/// teardown cannot clobber its own replacement.
struct Conn {
    generation: u64,
    stream: TcpStream,
}

/// State shared between the hub handle, the acceptor, and reader threads.
struct HubShared {
    /// Write halves in participant-id order: [`TcpHub::connected`]'s roster
    /// (which reaches dropout bookkeeping) is deterministic by construction
    /// (FSA003), not by whatever the hash seed produced.
    streams: Mutex<BTreeMap<ParticipantId, Conn>>,
    /// (registered ids ever seen, generation counter).
    registry: Mutex<(Vec<ParticipantId>, u64)>,
    registered: Condvar,
    shutdown: AtomicBool,
}

impl HubShared {
    /// Registers (or re-registers) `id`'s write half, returning the
    /// connection generation assigned to it.
    fn register(&self, id: ParticipantId, stream: TcpStream) -> u64 {
        let generation = {
            let mut reg = lock(&self.registry);
            reg.1 += 1;
            if !reg.0.contains(&id) {
                reg.0.push(id);
            }
            reg.1
        };
        lock(&self.streams).insert(id, Conn { generation, stream });
        self.registered.notify_all();
        generation
    }

    /// Tears down `id`'s connection only if it still is generation `gen`
    /// (a rejoined participant's fresh connection is left alone). Returns
    /// whether the teardown applied.
    fn deregister(&self, id: ParticipantId, generation: u64) -> bool {
        let mut streams = lock(&self.streams);
        match streams.get(&id) {
            Some(conn) if conn.generation == generation => {
                streams.remove(&id);
                true
            }
            _ => false,
        }
    }
}

/// Server side: accepts connections for its whole lifetime, runs one reader
/// thread per connection (feeding a single incoming event queue), and keeps
/// write halves addressable by participant id.
pub struct TcpHub {
    shared: Arc<HubShared>,
    incoming: Receiver<HubEvent>,
    local_addr: SocketAddr,
    monitor: MonitorHandle,
}

/// A bound-but-not-yet-accepting hub: lets callers learn the ephemeral port
/// before clients connect.
pub struct PendingHub {
    listener: TcpListener,
    monitor: MonitorHandle,
    read_timeout: Duration,
}

impl PendingHub {
    /// The bound address.
    pub fn local_addr(&self) -> Result<SocketAddr, TcpError> {
        Ok(self.listener.local_addr()?)
    }

    /// Attaches an observability sink; the hub's reader threads and writes
    /// count real wire bytes and frames into it. Must be called before
    /// [`PendingHub::accept`] so the reader threads carry the handle.
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> Self {
        self.monitor = monitor;
        self
    }

    /// Sets the per-connection read deadline (the liveness tick; default
    /// 50ms). Reader threads wake at this cadence to notice shutdown.
    pub fn with_read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Starts the hub and waits (up to 30s) until `expected_clients`
    /// distinct participants have completed their join handshake, so every
    /// write half is registered before this returns.
    pub fn accept(self, expected_clients: usize) -> Result<TcpHub, TcpError> {
        self.accept_within(expected_clients, Duration::from_secs(30))
    }

    /// [`PendingHub::accept`] with an explicit handshake deadline.
    pub fn accept_within(
        self,
        expected_clients: usize,
        wait: Duration,
    ) -> Result<TcpHub, TcpError> {
        let hub = TcpHub::start(self.listener, self.monitor, self.read_timeout)?;
        hub.await_registrations(expected_clients, wait)?;
        Ok(hub)
    }
}

impl TcpHub {
    /// Binds `addr` without accepting yet (use with port 0 to learn the
    /// ephemeral port before clients connect).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<PendingHub, TcpError> {
        Ok(PendingHub {
            listener: TcpListener::bind(addr)?,
            monitor: MonitorHandle::null(),
            read_timeout: Duration::from_millis(50),
        })
    }

    /// Binds `addr` and waits for exactly `expected_clients` join
    /// handshakes. Returns once all write halves are registered.
    pub fn listen(addr: impl ToSocketAddrs, expected_clients: usize) -> Result<TcpHub, TcpError> {
        Self::bind(addr)?.accept(expected_clients)
    }

    /// Spawns the acceptor thread and returns the hub handle.
    fn start(
        listener: TcpListener,
        monitor: MonitorHandle,
        read_timeout: Duration,
    ) -> Result<TcpHub, TcpError> {
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(HubShared {
            streams: Mutex::new(BTreeMap::new()),
            registry: Mutex::new((Vec::new(), 0)),
            registered: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let (tx, incoming): (Sender<HubEvent>, Receiver<HubEvent>) = channel();
        // the acceptor polls so it can notice hub shutdown: accepted sockets
        // get their blocking behaviour back via set_read_timeout below
        listener.set_nonblocking(true)?;
        {
            let shared = shared.clone();
            let monitor = monitor.clone();
            std::thread::spawn(move || loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_read_timeout(Some(read_timeout)).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        let _ = stream.set_nonblocking(false);
                        Self::spawn_reader(stream, shared.clone(), tx.clone(), monitor.clone());
                    }
                    Err(e) if is_deadline(&e) => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => return,
                }
            });
        }
        Ok(TcpHub {
            shared,
            incoming,
            local_addr,
            monitor,
        })
    }

    /// One reader thread per connection: the first frame is the join
    /// handshake (it registers the write half and wakes `accept`);
    /// [`MessageKind::Rejoin`] frames are consumed as transport control;
    /// everything else flows to the incoming queue. Death is reported as
    /// [`HubEvent::Disconnected`] unless a newer connection for the same
    /// participant has already taken over.
    fn spawn_reader(
        stream: TcpStream,
        shared: Arc<HubShared>,
        tx: Sender<HubEvent>,
        monitor: MonitorHandle,
    ) {
        std::thread::spawn(move || {
            let mut reader = match stream.try_clone() {
                Ok(r) => r,
                Err(_) => return,
            };
            let mut frames = FrameReader::default();
            let mut me: Option<(ParticipantId, u64)> = None;
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match frames.poll(&mut reader, &monitor) {
                    Ok(None) => continue, // deadline tick, frame still partial
                    Ok(Some(msg)) => {
                        let first = me.is_none();
                        if first {
                            let write_half = match stream.try_clone() {
                                Ok(w) => w,
                                Err(_) => return,
                            };
                            let generation = shared.register(msg.sender, write_half);
                            me = Some((msg.sender, generation));
                        }
                        if msg.kind == MessageKind::Rejoin {
                            // transport control: the handshake re-registered
                            // the write half above (or refreshes it here for
                            // a mid-stream rejoin); the workers never see it
                            if tx.send(HubEvent::Rejoined(msg.sender)).is_err() {
                                return;
                            }
                            continue;
                        }
                        if tx.send(HubEvent::Message(msg)).is_err() {
                            return;
                        }
                    }
                    Err(TcpError::Codec(e)) => {
                        let id = me.map(|(id, _)| id);
                        let _ = tx.send(HubEvent::Codec(id, e.to_string()));
                        if let Some((id, generation)) = me {
                            shared.deregister(id, generation);
                        }
                        return;
                    }
                    Err(_) => {
                        // connection dead: report it unless a rejoin already
                        // replaced this connection with a fresh one
                        if let Some((id, generation)) = me {
                            if shared.deregister(id, generation) {
                                let _ = tx.send(HubEvent::Disconnected(id));
                            }
                        }
                        return;
                    }
                }
            }
        });
    }

    /// Blocks until `expected` distinct participants have registered.
    fn await_registrations(&self, expected: usize, wait: Duration) -> Result<(), TcpError> {
        let deadline = Instant::now() + wait;
        let mut reg = lock(&self.shared.registry);
        while reg.0.len() < expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("only {}/{expected} clients joined", reg.0.len()),
                )
                .into());
            }
            let (guard, _timeout) = self
                .shared
                .registered
                .wait_timeout(reg, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            reg = guard;
        }
        Ok(())
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks for the next hub event (message or liveness transition).
    pub fn recv_event(&self) -> Result<HubEvent, TcpError> {
        self.incoming.recv().map_err(|_| TcpError::Closed)
    }

    /// Blocks up to `timeout` for the next hub event; `Ok(None)` when the
    /// timeout elapses. The blocking path the distributed server loop uses
    /// instead of busy-polling.
    pub fn recv_event_timeout(&self, timeout: Duration) -> Result<Option<HubEvent>, TcpError> {
        match self.incoming.recv_timeout(timeout) {
            Ok(ev) => Ok(Some(ev)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TcpError::Closed),
        }
    }

    /// Blocks for the next decoded incoming *message*, skipping liveness
    /// events (compatibility path for callers without dropout handling).
    pub fn recv(&self) -> Result<Message, TcpError> {
        loop {
            if let HubEvent::Message(m) = self.recv_event()? {
                return Ok(m);
            }
        }
    }

    /// Non-blocking receive of the next *message*, skipping liveness events;
    /// `Ok(None)` when the queue holds no message.
    pub fn try_recv(&self) -> Result<Option<Message>, TcpError> {
        loop {
            match self.incoming.try_recv() {
                Ok(HubEvent::Message(m)) => return Ok(Some(m)),
                Ok(_) => continue,
                Err(std::sync::mpsc::TryRecvError::Empty) => return Ok(None),
                Err(std::sync::mpsc::TryRecvError::Disconnected) => return Err(TcpError::Closed),
            }
        }
    }

    /// Sends a message to its receiver's connection.
    pub fn send(&self, msg: &Message) -> Result<(), TcpError> {
        let mut streams = lock(&self.shared.streams);
        let conn = streams
            .get_mut(&msg.receiver)
            .ok_or(TcpError::UnknownReceiver(msg.receiver))?;
        write_frame_monitored(&mut conn.stream, msg, &self.monitor)
    }

    /// Ids of currently registered client connections, in id order.
    pub fn connected(&self) -> Vec<ParticipantId> {
        lock(&self.shared.streams).keys().copied().collect()
    }
}

impl Drop for TcpHub {
    /// Raises the shutdown flag and shuts every registered connection down,
    /// so reader threads exit on EOF now rather than at their next deadline
    /// tick, and blocked peers see the hub go away.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for conn in lock(&self.shared.streams).values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Client side: one plain connection to the hub.
pub struct TcpPeer {
    stream: TcpStream,
    /// Receive buffer reused across [`TcpPeer::recv`] calls.
    body: Vec<u8>,
    monitor: MonitorHandle,
}

impl TcpPeer {
    /// Connects to a hub (with `TCP_NODELAY` set).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpPeer, TcpError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpPeer {
            stream,
            body: Vec::new(),
            monitor: MonitorHandle::null(),
        })
    }

    /// Attaches an observability sink counting this peer's wire traffic.
    pub fn set_monitor(&mut self, monitor: MonitorHandle) {
        self.monitor = monitor;
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &Message) -> Result<(), TcpError> {
        write_frame_monitored(&mut self.stream, msg, &self.monitor)
    }

    /// Blocks for the next message from the hub.
    pub fn recv(&mut self) -> Result<Message, TcpError> {
        read_frame_into(&mut self.stream, &mut self.body, &self.monitor)
    }

    /// Tears the connection down immediately (both directions).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Capped exponential backoff for client reconnects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Connection attempts per outage before giving up.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling on the doubled delay.
    pub max_delay: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl ReconnectPolicy {
    /// The backoff before attempt `n` (0-based): `base * 2^n`, capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(2u32.saturating_pow(attempt));
        exp.min(self.max_delay)
    }
}

/// A client connection with optional fault injection on sends and optional
/// reconnect-with-backoff on outages.
///
/// An injected `Disconnect` verdict really closes the socket (the hub's
/// liveness machinery sees a dead connection). With a [`ReconnectPolicy`]
/// the next operation transparently reconnects — capped exponential backoff,
/// then a [`MessageKind::Rejoin`] handshake so the hub re-registers the
/// write half — and the `reconnects` counter records the recovery. Without
/// one, the link stays dead and operations report it.
pub struct ResilientPeer {
    addr: SocketAddr,
    id: ParticipantId,
    peer: Option<TcpPeer>,
    reconnect: Option<ReconnectPolicy>,
    faults: Option<FaultState>,
    monitor: MonitorHandle,
    reconnects: u64,
}

impl ResilientPeer {
    /// Connects participant `id` to the hub at `addr`.
    pub fn connect(addr: SocketAddr, id: ParticipantId) -> Result<Self, TcpError> {
        Ok(Self {
            addr,
            id,
            peer: Some(TcpPeer::connect(addr)?),
            reconnect: None,
            faults: None,
            monitor: MonitorHandle::null(),
            reconnects: 0,
        })
    }

    /// Enables reconnect-with-backoff on outages.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Injects the given fault schedule into this peer's sends.
    pub fn with_faults(mut self, faults: FaultState) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an observability sink (wire counters + reconnect counter).
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> Self {
        if let Some(p) = self.peer.as_mut() {
            p.set_monitor(monitor.clone());
        }
        self.monitor = monitor;
        self
    }

    /// Successful reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether the link is currently down.
    pub fn is_down(&self) -> bool {
        self.peer.is_none()
    }

    /// Closes the current connection (if any).
    fn kill_link(&mut self) {
        if let Some(p) = self.peer.take() {
            p.shutdown();
        }
    }

    /// Re-establishes a dead link per the reconnect policy and performs the
    /// rejoin handshake. Errors when no policy is set or attempts run out.
    fn ensure_connected(&mut self) -> Result<&mut TcpPeer, TcpError> {
        if self.peer.is_some() {
            // (returning from an `if let Some(p)` borrow trips the borrow
            // checker against the reconnect path below)
            return self.peer.as_mut().ok_or(TcpError::Closed);
        }
        let policy = self.reconnect.ok_or(TcpError::Closed)?;
        let mut last_err: Option<TcpError> = None;
        for attempt in 0..policy.max_attempts {
            std::thread::sleep(policy.backoff(attempt));
            match TcpPeer::connect(self.addr) {
                Ok(mut peer) => {
                    peer.set_monitor(self.monitor.clone());
                    let hello =
                        Message::new(self.id, SERVER_ID, MessageKind::Rejoin, 0, Payload::Empty);
                    match peer.send(&hello) {
                        Ok(()) => {
                            self.reconnects += 1;
                            self.monitor.add(counters::RECONNECTS, 1);
                            self.peer = Some(peer);
                            // fsa::allow(FSA021, Some was assigned on the previous line)
                            return Ok(self.peer.as_mut().expect("just set"));
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(TcpError::Closed))
    }

    /// Sends one message through the fault model, reconnecting first if the
    /// link is down and a policy allows it.
    pub fn send(&mut self, msg: &Message) -> Result<SendOutcome, TcpError> {
        if let Some(f) = self.faults.as_mut() {
            match f.next_action() {
                FaultAction::Deliver => {
                    if let Some(d) = f.delay() {
                        std::thread::sleep(d);
                    }
                }
                FaultAction::Drop => return Ok(SendOutcome::Dropped),
                FaultAction::Disconnect => {
                    self.kill_link();
                    return Ok(SendOutcome::Disconnected);
                }
            }
        }
        if self.peer.is_none() && self.reconnect.is_none() {
            return Ok(SendOutcome::Disconnected);
        }
        match self.ensure_connected()?.send(msg) {
            Ok(()) => Ok(SendOutcome::Sent),
            Err(TcpError::Io(_)) if self.reconnect.is_some() => {
                // the link died underneath us: reconnect once and retry, so a
                // transient outage does not lose the frame
                self.kill_link();
                self.ensure_connected()?.send(msg)?;
                Ok(SendOutcome::Sent)
            }
            Err(e) => {
                self.kill_link();
                Err(e)
            }
        }
    }

    /// Blocks for the next message, reconnecting on outages when a policy
    /// allows it. A frame in flight during an outage is lost — the caller
    /// simply waits for the next server broadcast, exactly like a phone
    /// rejoining after a tunnel.
    pub fn recv(&mut self) -> Result<Message, TcpError> {
        loop {
            if self.peer.is_none() && self.reconnect.is_none() {
                return Err(TcpError::Closed);
            }
            match self.ensure_connected()?.recv() {
                Ok(msg) => return Ok(msg),
                Err(TcpError::Io(_)) if self.reconnect.is_some() => {
                    self.kill_link();
                    // loop: ensure_connected applies the backoff schedule
                }
                Err(e) => {
                    self.kill_link();
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::message::{MessageKind, Payload, SERVER_ID};
    use fs_tensor::{ParamMap, Tensor};

    fn join_msg(id: ParticipantId) -> Message {
        Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty)
    }

    fn id_msg(id: ParticipantId) -> Message {
        Message::new(SERVER_ID, id, MessageKind::IdAssignment, 0, Payload::Empty)
    }

    #[test]
    fn frame_roundtrip_over_localhost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_frame(&mut s).unwrap()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![3], vec![1.0, -2.0, 3.0]));
        let msg = Message::new(
            4,
            SERVER_ID,
            MessageKind::Updates,
            7,
            Payload::Update {
                params: p,
                start_version: 6,
                n_samples: 11,
                n_steps: 2,
            },
        );
        write_frame(&mut client, &msg).unwrap();
        let got = h.join().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn hub_routes_by_first_sender() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let mut handles = Vec::new();
        let mut release = Vec::new();
        for id in [1u32, 2] {
            // each peer stays connected until the roster has been checked;
            // closing right after the reply would deregister it first
            let (done_tx, done_rx) = channel::<()>();
            release.push(done_tx);
            handles.push(std::thread::spawn(move || {
                let mut peer = TcpPeer::connect(addr).unwrap();
                peer.send(&join_msg(id)).unwrap();
                let reply = peer.recv().unwrap();
                assert_eq!(reply.kind, MessageKind::IdAssignment);
                assert_eq!(reply.receiver, id);
                let _ = done_rx.recv();
            }));
        }
        let hub = pending.accept(2).unwrap();
        let a = hub.recv().unwrap();
        let b = hub.recv().unwrap();
        let mut ids = vec![a.sender, b.sender];
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        for id in [1u32, 2] {
            hub.send(&id_msg(id)).unwrap();
        }
        assert_eq!(hub.connected().len(), 2);
        drop(release);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn send_immediately_after_accept_succeeds() {
        // regression: registration used to happen on the reader thread after
        // accept returned, so an eager server send hit UnknownReceiver
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(9)).unwrap();
            peer.recv().unwrap()
        });
        let hub = pending.accept(1).unwrap();
        // no recv first: the write half must already be registered
        hub.send(&id_msg(9)).expect("send right after accept");
        let got = client.join().unwrap();
        assert_eq!(got.kind, MessageKind::IdAssignment);
    }

    #[test]
    fn dead_connection_surfaces_as_disconnected_event() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(3)).unwrap();
            peer.shutdown(); // dies without a goodbye
        });
        let hub = pending.accept(1).unwrap();
        client.join().unwrap();
        let mut saw_join = false;
        let mut saw_disconnect = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && !(saw_join && saw_disconnect) {
            match hub.recv_event_timeout(Duration::from_millis(100)).unwrap() {
                Some(HubEvent::Message(m)) if m.kind == MessageKind::JoinIn => saw_join = true,
                Some(HubEvent::Disconnected(3)) => saw_disconnect = true,
                Some(other) => panic!("unexpected event {other:?}"),
                None => {}
            }
        }
        assert!(saw_join && saw_disconnect, "missing join or disconnect");
        assert!(hub.connected().is_empty(), "dead stream must deregister");
    }

    #[test]
    fn garbage_frame_surfaces_as_codec_event() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(5)).unwrap();
            // a validly framed payload of garbage bytes
            let garbage = [0xFFu8; 16];
            peer.stream.write_all(&(16u32).to_le_bytes()).unwrap();
            peer.stream.write_all(&garbage).unwrap();
        });
        let hub = pending.accept(1).unwrap();
        client.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_codec = false;
        while Instant::now() < deadline && !saw_codec {
            match hub.recv_event_timeout(Duration::from_millis(100)).unwrap() {
                Some(HubEvent::Codec(Some(5), _)) => saw_codec = true,
                Some(HubEvent::Message(_)) | None => {}
                Some(other) => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_codec, "codec error never surfaced");
    }

    #[test]
    fn rejoin_swaps_write_half_and_suppresses_stale_disconnect() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = ResilientPeer::connect(addr, 4)
                .unwrap()
                .with_reconnect(ReconnectPolicy::default())
                .with_faults(
                    FaultPlan::new(3)
                        .with(4, FaultSpec::dies_after(1))
                        .state_for(4),
                );
            assert_eq!(peer.send(&join_msg(4)).unwrap(), SendOutcome::Sent);
            // fault schedule kills the link on the second send attempt
            assert_eq!(peer.send(&join_msg(4)).unwrap(), SendOutcome::Disconnected);
            // the next op reconnects with the rejoin handshake
            let got = peer.recv().unwrap();
            assert_eq!(peer.reconnects(), 1);
            got
        });
        let hub = pending.accept(1).unwrap();
        let mut rejoined = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && !rejoined {
            match hub.recv_event_timeout(Duration::from_millis(100)).unwrap() {
                Some(HubEvent::Rejoined(4)) => rejoined = true,
                Some(HubEvent::Message(_)) | Some(HubEvent::Disconnected(_)) | None => {}
                Some(other) => panic!("unexpected event {other:?}"),
            }
        }
        assert!(rejoined, "rejoin handshake never surfaced");
        // the fresh write half must be addressable
        hub.send(&id_msg(4)).expect("send after rejoin");
        let got = client.join().unwrap();
        assert_eq!(got.kind, MessageKind::IdAssignment);
    }

    #[test]
    fn reconnect_backoff_is_capped() {
        let p = ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(9), Duration::from_millis(80), "capped");
    }

    #[test]
    fn wire_counters_match_between_peer_and_hub() {
        use fs_monitor::RecordingMonitor;
        use std::sync::{Arc, Mutex};

        let hub_mon = Arc::new(Mutex::new(RecordingMonitor::new()));
        let peer_mon = Arc::new(Mutex::new(RecordingMonitor::new()));
        let pending = TcpHub::bind("127.0.0.1:0")
            .unwrap()
            .with_monitor(MonitorHandle::from_shared(hub_mon.clone()));
        let addr = pending.local_addr().unwrap();
        let peer_mon2 = peer_mon.clone();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.set_monitor(MonitorHandle::from_shared(peer_mon2));
            peer.send(&join_msg(1)).unwrap();
            let reply = peer.recv().unwrap();
            assert_eq!(reply.kind, MessageKind::IdAssignment);
        });
        let hub = pending.accept(1).unwrap();
        let joined = hub.recv().unwrap();
        assert_eq!(joined.sender, 1);
        hub.send(&id_msg(1)).unwrap();
        client.join().unwrap();
        let hub_mon = hub_mon.lock().unwrap();
        let peer_mon = peer_mon.lock().unwrap();
        // what the peer put on the wire is what the hub took off, and back
        assert_eq!(
            peer_mon.counter(counters::WIRE_BYTES_OUT),
            hub_mon.counter(counters::WIRE_BYTES_IN)
        );
        assert_eq!(
            hub_mon.counter(counters::WIRE_BYTES_OUT),
            peer_mon.counter(counters::WIRE_BYTES_IN)
        );
        assert_eq!(peer_mon.counter(counters::WIRE_FRAMES_OUT), 1);
        assert_eq!(hub_mon.counter(counters::WIRE_FRAMES_IN), 1);
        // real wire bytes = 4-byte length prefix + encoded frame
        let join = join_msg(1);
        assert_eq!(
            peer_mon.counter(counters::WIRE_BYTES_OUT),
            4 + join.wire_bytes() as u64
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // write a bogus huge length prefix
            s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        h.join().unwrap();
        match read_frame(&mut client) {
            Err(TcpError::FrameTooLarge(_)) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_per_frame() {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![4], vec![0.5, -1.0, 2.0, 8.0]));
        let msgs = [
            join_msg(3),
            Message::new(
                SERVER_ID,
                3,
                MessageKind::ModelParams,
                2,
                Payload::Model {
                    params: p,
                    version: 2,
                },
            ),
        ];
        let mut w = CountingWriter::default();
        for (n, msg) in msgs.iter().enumerate() {
            write_frame(&mut w, msg).unwrap();
            assert_eq!(w.writes, n + 1, "frame {n} took more than one write");
        }
        // the single write is the whole frame: prefix + exact encoding
        let expected: usize = msgs.iter().map(|m| 4 + m.wire_bytes()).sum();
        assert_eq!(w.bytes.len(), expected);
        let mut src = &w.bytes[..];
        let mut body = Vec::new();
        for msg in &msgs {
            let got = read_frame_into(&mut src, &mut body, &MonitorHandle::null()).unwrap();
            assert_eq!(&got, msg);
        }
        assert!(src.is_empty());
    }

    #[test]
    fn every_transport_socket_sets_nodelay() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let (done_tx, done_rx) = channel::<()>();
        let client = std::thread::spawn(move || {
            let mut plain = TcpPeer::connect(addr).unwrap();
            assert!(plain.stream.nodelay().unwrap(), "TcpPeer without NODELAY");
            plain.send(&join_msg(1)).unwrap();

            let mut peer = ResilientPeer::connect(addr, 2)
                .unwrap()
                .with_reconnect(ReconnectPolicy::default())
                .with_faults(
                    FaultPlan::new(5)
                        .with(2, FaultSpec::dies_after(1))
                        .state_for(2),
                );
            assert_eq!(peer.send(&join_msg(2)).unwrap(), SendOutcome::Sent);
            assert_eq!(peer.send(&join_msg(2)).unwrap(), SendOutcome::Disconnected);
            // reconnect through the policy (what the next send/recv does)
            let fresh = peer.ensure_connected().unwrap();
            assert!(
                fresh.stream.nodelay().unwrap(),
                "reconnected link without NODELAY"
            );
            assert_eq!(peer.reconnects(), 1);
            let _ = done_rx.recv();
        });
        let hub = pending.accept_within(2, Duration::from_secs(10)).unwrap();
        let mut rejoined = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && !rejoined {
            if let Some(HubEvent::Rejoined(2)) =
                hub.recv_event_timeout(Duration::from_millis(100)).unwrap()
            {
                rejoined = true;
            }
        }
        assert!(rejoined, "rejoin handshake never surfaced");
        {
            let streams = lock(&hub.shared.streams);
            assert_eq!(streams.len(), 2);
            for (id, conn) in streams.iter() {
                assert!(
                    conn.stream.nodelay().unwrap(),
                    "hub-accepted socket of {id} without NODELAY"
                );
            }
        }
        drop(done_tx);
        client.join().unwrap();
    }

    #[test]
    fn frame_reader_rejects_oversized_prefix_before_allocating() {
        let claimed = MAX_FRAME_BYTES + 1;
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &join_msg(7)).unwrap();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        let mut src = &bytes[..];
        let mut frames = FrameReader::default();
        let monitor = MonitorHandle::null();
        assert!(matches!(frames.poll(&mut src, &monitor), Ok(Some(_))));
        match frames.poll(&mut src, &monitor) {
            Err(TcpError::FrameTooLarge(n)) => assert_eq!(n, claimed),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(
            frames.body.capacity() < claimed as usize,
            "buffer grew to {} bytes for a rejected prefix",
            frames.body.capacity()
        );
    }

    #[test]
    fn oversized_prefix_tears_hub_connection_down() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(6)).unwrap();
            peer.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
            // hang guard only: the hub's teardown is what ends this read
            peer.stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut byte = [0u8; 1];
            match peer.stream.read(&mut byte) {
                Ok(0) => {}
                Ok(n) => panic!("hub sent {n} unexpected bytes"),
                Err(e) => assert!(!is_deadline(&e), "hub never closed: {e}"),
            }
        });
        let hub = pending.accept(1).unwrap();
        let mut saw_disconnect = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && !saw_disconnect {
            match hub.recv_event_timeout(Duration::from_millis(100)).unwrap() {
                Some(HubEvent::Disconnected(6)) => saw_disconnect = true,
                Some(HubEvent::Message(m)) if m.kind == MessageKind::JoinIn => {}
                Some(other) => panic!("unexpected event {other:?}"),
                None => {}
            }
        }
        assert!(saw_disconnect, "oversized prefix did not drop the link");
        assert!(hub.connected().is_empty());
        client.join().unwrap();
    }

    #[test]
    fn dropping_hub_unblocks_peer_recv() {
        // a long liveness tick: only the drop-time shutdown can end the
        // peer's read before its hang guard
        let pending = TcpHub::bind("127.0.0.1:0")
            .unwrap()
            .with_read_timeout(Duration::from_secs(30));
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            peer.send(&join_msg(8)).unwrap();
            peer.recv()
        });
        let hub = pending.accept(1).unwrap();
        assert_eq!(hub.recv().unwrap().sender, 8);
        drop(hub);
        match client.join().unwrap() {
            Err(TcpError::Io(e)) => assert!(!is_deadline(&e), "recv hit its hang guard: {e}"),
            other => panic!("expected an io error after hub drop, got {other:?}"),
        }
    }
}
