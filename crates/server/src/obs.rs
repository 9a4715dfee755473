//! Server-side observability: the process-wide registry, the event
//! ring, per-tenant registries, and scrape rendering.
//!
//! One [`ServerObs`] lives for the daemon's lifetime. Connection
//! threads report lifecycle edges through it ([`ServerObs::emit`] and
//! the typed helpers); chunk execution reports through the per-session
//! `SessionObs` hooks it builds, which fan each update out to both the
//! tenant's registry and the process-wide one. A `Metrics` request
//! renders everything into one text exposition: process metrics first,
//! then each live tenant's metrics labeled `session="N"`,
//! `predictor="..."` (BTreeMap order, so scrapes are deterministic).
//!
//! Timestamps are nanoseconds since the server bound its listener (a
//! `MonotonicClock` anchored in [`ServerObs::new`]); log lines and
//! event records share the same clock. When a log level is configured,
//! every emitted event at or below that level is also written to
//! stderr as a `[+secs] LEVEL message` line — the daemon's entire
//! logging path goes through the event layer, not ad-hoc `eprintln!`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use stems_core::protocol::{MetricsReply, WireError};
use stems_core::session::Predictor;
use stems_obs::{
    Counter, Event, EventKind, EventRing, Gauge, LogLevel, MetricsRegistry, SessionObs,
};
use stems_types::clock::{MonotonicClock, SharedClock};

struct Tenant {
    registry: Arc<MetricsRegistry>,
    predictor: &'static str,
}

/// The daemon's observability hub; see the module docs.
pub struct ServerObs {
    clock: SharedClock,
    registry: MetricsRegistry,
    ring: Arc<EventRing>,
    log: Option<LogLevel>,
    slow_chunk_nanos: u64,
    tenants: Mutex<BTreeMap<u32, Tenant>>,
    connections: Counter,
    hello_failures: Counter,
    wire_errors: Counter,
    sessions_opened: Counter,
    sessions_closed: Counter,
    sessions_evicted: Counter,
    sessions_aborted: Counter,
    sessions_open: Gauge,
    sessions_resumed: Counter,
    chunks_deduped: Counter,
    chunks_shed: Counter,
    opens_shed: Counter,
    connections_shed: Counter,
    busy_replies: Counter,
    open_rejected: Counter,
    worker_panics: Counter,
    scrapes: Counter,
}

impl ServerObs {
    /// Creates the hub, anchoring its clock at "now" (bind time).
    /// `log` enables stderr lines at or below that level;
    /// `slow_chunk_nanos` is the per-chunk latency threshold baked into
    /// every session hook (0 disables); `event_capacity` bounds the
    /// ring.
    pub fn new(log: Option<LogLevel>, slow_chunk_nanos: u64, event_capacity: usize) -> ServerObs {
        let registry = MetricsRegistry::new();
        ServerObs {
            clock: Arc::new(MonotonicClock::new()),
            ring: Arc::new(EventRing::new(event_capacity)),
            log,
            slow_chunk_nanos,
            tenants: Mutex::new(BTreeMap::new()),
            connections: registry.counter("stems_connections_total"),
            hello_failures: registry.counter("stems_hello_failures_total"),
            wire_errors: registry.counter("stems_wire_errors_total"),
            sessions_opened: registry.counter("stems_sessions_opened_total"),
            sessions_closed: registry.counter("stems_sessions_closed_total"),
            sessions_evicted: registry.counter("stems_sessions_evicted_total"),
            sessions_aborted: registry.counter("stems_sessions_aborted_total"),
            sessions_open: registry.gauge("stems_sessions_open"),
            sessions_resumed: registry.counter("stems_sessions_resumed_total"),
            chunks_deduped: registry.counter("stems_chunks_deduped_total"),
            chunks_shed: registry.counter("stems_chunks_shed_total"),
            opens_shed: registry.counter("stems_opens_shed_total"),
            connections_shed: registry.counter("stems_connections_shed_total"),
            busy_replies: registry.counter("stems_busy_total"),
            open_rejected: registry.counter("stems_open_rejected_total"),
            worker_panics: registry.counter("stems_worker_panics_total"),
            scrapes: registry.counter("stems_scrapes_total"),
            registry,
        }
    }

    /// The process-wide registry (tests assert against it directly).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Nanoseconds since the server's clock origin.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Records an event: timestamped into the ring, and onto stderr
    /// when a log level admits it.
    pub fn emit(&self, kind: EventKind) {
        let event = Event {
            nanos: self.clock.now_nanos(),
            kind,
        };
        if self.log.is_some_and(|max| event.kind.level() <= max) {
            let mut line = String::new();
            event.write_text(&mut line);
            eprintln!("{line}");
        }
        self.ring.push(event);
    }

    /// A connection was accepted.
    pub fn connection_accepted(&self) {
        self.connections.inc();
    }

    /// A peer failed the hello exchange.
    pub fn hello_failed(&self) {
        self.hello_failures.inc();
        self.emit(EventKind::Log {
            level: LogLevel::Warn,
            message: "connection failed the hello exchange".into(),
        });
    }

    /// A connection produced a protocol-level error: bumps the total
    /// and the per-kind labeled counter, and records the event.
    pub fn wire_error(&self, e: &WireError) {
        let kind = e.kind_name();
        self.wire_errors.inc();
        self.registry
            .counter_with("stems_wire_errors_by_kind_total", "kind", kind)
            .inc();
        self.emit(EventKind::WireError { kind });
    }

    /// An open was rejected (table full or draining).
    pub fn open_rejected(&self) {
        self.open_rejected.inc();
    }

    /// A reconnecting client resumed session `id`; `last_seq` is the
    /// server's authoritative journal position it was told.
    pub fn session_resumed(&self, id: u32, last_seq: u64) {
        self.sessions_resumed.inc();
        self.emit(EventKind::SessionResume {
            session: id,
            last_seq,
        });
    }

    /// A sequenced chunk at or below the journal position was skipped
    /// idempotently (a retransmit after partial delivery).
    pub fn chunk_deduped(&self) {
        self.chunks_deduped.inc();
    }

    /// Admission control answered `Busy` instead of running a chunk.
    pub fn chunk_shed(&self) {
        self.chunks_shed.inc();
        self.busy_replies.inc();
    }

    /// Admission control answered `Busy` instead of opening a session
    /// (load-shedding prefers rejecting new tenants over starving
    /// checked-out ones).
    pub fn open_shed(&self) {
        self.opens_shed.inc();
        self.busy_replies.inc();
        self.open_rejected.inc();
    }

    /// A `Busy` reply not tied to chunk/open/connection shedding (a
    /// `Close` raced another connection's checkout).
    pub fn busy_replied(&self) {
        self.busy_replies.inc();
    }

    /// The accept loop turned a connection away at the door (backlog
    /// full): hello + `Busy` + close, never a silent RST.
    pub fn connection_shed(&self) {
        self.connections_shed.inc();
        self.busy_replies.inc();
        self.emit(EventKind::Log {
            level: LogLevel::Warn,
            message: "connection shed: accept backlog full".into(),
        });
    }

    /// A connection worker panicked (the chunk guard has already
    /// repaired the session table by the time this is called).
    pub fn worker_panicked(&self) {
        self.worker_panics.inc();
        self.emit(EventKind::Log {
            level: LogLevel::Error,
            message: "connection worker panicked".into(),
        });
    }

    /// Registers session `id`: creates its tenant registry and returns
    /// the chunk hook to attach to the `Session`, wired to both the
    /// tenant registry and the process-wide one, with the configured
    /// slow-chunk threshold feeding the shared event ring.
    pub fn session_opened(&self, id: u32, predictor: Predictor) -> SessionObs {
        let tenant = Arc::new(MetricsRegistry::new());
        let hook = SessionObs::builder(self.clock.clone())
            .registry(&tenant)
            .registry(&self.registry)
            .slow_chunk(self.slow_chunk_nanos, id, self.ring.clone())
            .build();
        self.tenants.lock().unwrap().insert(
            id,
            Tenant {
                registry: tenant,
                predictor: predictor.name(),
            },
        );
        self.sessions_opened.inc();
        self.sessions_open.add(1);
        self.emit(EventKind::SessionOpen {
            session: id,
            predictor: predictor.name().to_string(),
        });
        hook
    }

    fn forget_tenant(&self, id: u32) {
        self.tenants.lock().unwrap().remove(&id);
        self.sessions_open.add(-1);
    }

    /// Session `id` closed normally after feeding `accesses` records.
    pub fn session_closed(&self, id: u32, accesses: u64) {
        self.forget_tenant(id);
        self.sessions_closed.inc();
        self.emit(EventKind::SessionClose {
            session: id,
            accesses,
        });
    }

    /// Session `id` was reclaimed by the idle sweeper.
    pub fn session_evicted(&self, id: u32) {
        self.forget_tenant(id);
        self.sessions_evicted.inc();
        self.emit(EventKind::SessionEvict { session: id });
    }

    /// Session `id` was torn down abnormally mid-chunk.
    pub fn session_aborted(&self, id: u32, context: &str) {
        self.forget_tenant(id);
        self.sessions_aborted.inc();
        self.emit(EventKind::SessionAbort {
            session: id,
            context: context.to_string(),
        });
    }

    /// Shutdown drain started over `sessions` live sessions.
    pub fn drain_started(&self, sessions: usize) {
        self.emit(EventKind::DrainStart { sessions });
    }

    /// Shutdown drain finished; `still_busy` sessions never checked
    /// back in. Drained sessions count as closed.
    pub fn drain_finished(&self, drained: &[u32], still_busy: usize) {
        for &id in drained {
            self.forget_tenant(id);
            self.sessions_closed.inc();
        }
        self.emit(EventKind::DrainFinish {
            sessions: still_busy,
        });
    }

    /// Renders a full scrape: process metrics, the ring's drop
    /// counter, then each live tenant's metrics labeled with its
    /// session id and predictor. `drain_events` empties the ring into
    /// the reply as JSON-lines.
    pub fn render(&self, drain_events: bool) -> MetricsReply {
        self.scrapes.inc();
        let mut exposition = String::new();
        self.registry.render(&mut exposition);
        stems_types::expo::write_sample(
            &mut exposition,
            "stems_events_dropped_total",
            &[],
            self.ring.dropped() as f64,
        );
        let tenants = self.tenants.lock().unwrap();
        for (id, tenant) in tenants.iter() {
            let id_str = id.to_string();
            tenant.registry.render_labeled(
                &mut exposition,
                &[
                    ("session", id_str.as_str()),
                    ("predictor", tenant.predictor),
                ],
            );
        }
        drop(tenants);
        let events = if drain_events {
            self.ring.drain_json()
        } else {
            String::new()
        };
        MetricsReply { exposition, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counters_and_scrape_shape() {
        let obs = ServerObs::new(None, 0, 16);
        obs.connection_accepted();
        let hook = obs.session_opened(1, Predictor::Stems);
        let started = hook.begin_chunk();
        hook.end_chunk(started, 64);
        let scrape = obs.render(false);
        assert!(scrape.exposition.contains("stems_sessions_opened_total 1"));
        assert!(scrape.exposition.contains("stems_sessions_open 1"));
        assert!(scrape.exposition.contains("stems_accesses_total 64"));
        assert!(scrape
            .exposition
            .contains("stems_accesses_total{session=\"1\",predictor=\"STeMS\"} 64"));
        assert!(scrape.exposition.contains("stems_events_dropped_total 0"));
        assert!(scrape.events.is_empty());

        obs.session_closed(1, 64);
        let after = obs.render(true);
        assert!(after.exposition.contains("stems_sessions_open 0"));
        assert!(
            !after.exposition.contains("session=\"1\""),
            "closed tenants leave the scrape"
        );
        // Process-wide totals survive the tenant's departure.
        assert!(after.exposition.contains("stems_accesses_total 64"));
        assert!(after.events.contains("\"event\":\"session_open\""));
        assert!(after.events.contains("\"event\":\"session_close\""));
        // The scrape counter includes the in-progress scrape.
        assert!(after.exposition.contains("stems_scrapes_total 2"));
        // Draining is destructive.
        assert!(obs.render(true).events.is_empty());
    }

    #[test]
    fn wire_errors_count_by_kind() {
        let obs = ServerObs::new(None, 0, 16);
        obs.wire_error(&WireError::Corrupt("x"));
        obs.wire_error(&WireError::Corrupt("y"));
        obs.wire_error(&WireError::UnknownKind { kind: 0x77 });
        let scrape = obs.render(true);
        assert!(scrape.exposition.contains("stems_wire_errors_total 3"));
        assert!(scrape
            .exposition
            .contains("stems_wire_errors_by_kind_total{kind=\"corrupt\"} 2"));
        assert!(scrape
            .exposition
            .contains("stems_wire_errors_by_kind_total{kind=\"unknown_kind\"} 1"));
        assert_eq!(scrape.events.matches("\"event\":\"wire_error\"").count(), 3);
    }

    #[test]
    fn aborts_are_recorded_and_tenants_forgotten() {
        let obs = ServerObs::new(None, 0, 16);
        let _hook = obs.session_opened(5, Predictor::Tms);
        obs.session_aborted(5, "worker panic");
        let scrape = obs.render(true);
        assert!(scrape.exposition.contains("stems_sessions_aborted_total 1"));
        assert!(scrape.exposition.contains("stems_sessions_open 0"));
        assert!(!scrape.exposition.contains("session=\"5\""));
        assert!(scrape.events.contains("\"event\":\"session_abort\""));
        assert!(scrape.events.contains("worker panic"));
    }
}
