//! The paper's application-specific network services and baseline systems.
//!
//! Use cases (§2.1 / §6.1):
//!
//! * [`http`] — the HTTP load balancer (Figure 3a), compiled from its
//!   FLICK source, and the static web server, the one service still built
//!   as an explicit task graph on the FLICK runtime;
//! * [`memcached`] — the Memcached proxy (Listing 1) and cache router,
//!   compiled from their FLICK sources;
//! * [`hadoop`] — the Hadoop in-network data aggregator (Listing 3),
//!   compiled from its FLICK source;
//! * [`baselines`] — behavioural models of the systems the paper compares
//!   against: Apache and Nginx (the same thread-per-connection HTTP proxy
//!   at two per-request costs) and Moxi (multi-threaded Memcached proxy
//!   with shared state).

pub mod baselines;
pub mod hadoop;
pub mod http;
pub mod memcached;

pub use http::StaticWebServerFactory;
