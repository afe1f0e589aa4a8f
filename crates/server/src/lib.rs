//! Bouquet-as-a-service: a fault-tolerant multi-tenant server for plan
//! bouquet execution.
//!
//! A long-lived process loads catalogs, workloads and identified bouquets
//! **once** (warm-started through [`pb_bouquet::BouquetCache`]) and serves
//! concurrent bouquet executions over the existing
//! [`pb_bouquet::ExecutionSubstrate`] machinery. Robustness is layered:
//!
//! * **admission control** — a bounded queue rejects with an explicit
//!   `retry_after_ms` instead of queueing unboundedly ([`server`]);
//! * **tenant isolation** — per-tenant cumulative spend caps threaded into
//!   the driver as [`pb_bouquet::RobustConfig::spend_cap`], so an
//!   exhausted tenant degrades *its own* queries and never a neighbour's
//!   ([`tenant`]);
//! * **deadlines + cancellation** — a per-request [`pb_faults::CancelToken`]
//!   polled cooperatively by the drivers and the execution substrates;
//!   cancelled runs keep their checkpoints, so an identical resubmission
//!   resumes instead of restarting;
//! * **containment** — a panicking run fails only its own request, with a
//!   typed error, and its worker serves on ([`server`]);
//! * **graceful drain** — admission stops, every accepted request is
//!   answered, then the process exits.
//!
//! All of the server's mutable state — requests, the queue, the counters,
//! the tenant ledger, retained books and faults — is one value behind one
//! mutex, and each request step is one critical section, so every
//! [`ServerStats`] is a consistent snapshot.
//!
//! Transport is newline-delimited JSON over `std::net` TCP ([`protocol`]) —
//! the whole crate is std-only by design (the build container has no async
//! runtime, and the concurrency story is plain threads end to end).

pub mod client;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use client::PbClient;
pub use protocol::{QueryResult, ReqPhase, Request, Response, ServerStats};
pub use server::{PbServer, ServerConfig};
pub use tenant::{Reservation, TenantLedger};
