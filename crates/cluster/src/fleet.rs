//! A supervised local fleet of in-process `mds-serve` backends.
//!
//! `mds-cluster --spawn N` (and the cluster tests and benchmark) need N
//! backends without N terminals: this module starts them in-process on
//! ephemeral ports, hands their addresses to the gateway, and shuts them
//! down gracefully with it. Each backend is a full [`mds_serve::Server`]
//! — own event loop, worker pool, result cache, and trace cache — so a
//! spawned fleet exercises exactly the code paths of N separate
//! processes, minus the process boundary.

use mds_serve::{LogTarget, Server, ServerConfig};
use std::path::PathBuf;

/// Per-backend tunables for a spawned fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backends to spawn.
    pub backends: usize,
    /// Request-executing workers per backend.
    pub workers: usize,
    /// Job-queue depth per backend.
    pub queue_depth: usize,
    /// Simulation threads per backend (`None`: `MDS_JOBS` or all cores).
    pub jobs: Option<usize>,
    /// Durable-store base directory: backend `i` stores under
    /// `<dir>/backend-<i>`, so a respawned fleet boots warm.
    pub store_dir: Option<PathBuf>,
    /// Access-log destination for every backend.
    pub log: LogTarget,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            backends: 2,
            workers: 4,
            queue_depth: 64,
            jobs: None,
            store_dir: None,
            log: LogTarget::Discard,
        }
    }
}

/// A running local fleet. Backends can be stopped individually (to
/// exercise failover) and the rest shut down together.
pub struct Fleet {
    /// `None` marks a backend that was individually stopped.
    servers: Vec<Option<Server>>,
}

impl Fleet {
    /// Spawns `config.backends` servers on ephemeral ports.
    pub fn spawn(config: &FleetConfig) -> Result<Fleet, String> {
        if config.backends == 0 {
            return Err("a fleet needs at least one backend".to_string());
        }
        let mut servers = Vec::with_capacity(config.backends);
        for i in 0..config.backends {
            servers.push(Some(Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: config.workers,
                queue_depth: config.queue_depth,
                jobs: config.jobs,
                store_dir: config
                    .store_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("backend-{i}"))),
                log: config.log,
                ..ServerConfig::default()
            })?));
        }
        Ok(Fleet { servers })
    }

    /// Backend addresses, in spawn order (stopped backends keep their
    /// slot's last known address via the gateway's copy, so this only
    /// reports the still-running ones' addresses at spawn time).
    pub fn addrs(&self) -> Vec<String> {
        self.servers
            .iter()
            .flatten()
            .map(|s| s.local_addr().to_string())
            .collect()
    }

    /// Backends still running.
    pub fn running(&self) -> usize {
        self.servers.iter().flatten().count()
    }

    /// Gracefully stops backend `i` (drains in-flight work first), as a
    /// mid-run failure to exercise gateway failover. No-op if already
    /// stopped.
    pub fn stop(&mut self, i: usize) {
        if let Some(server) = self.servers.get_mut(i).and_then(Option::take) {
            server.shutdown();
        }
    }

    /// A borrow of backend `i`'s server (for counters in tests).
    pub fn server(&self, i: usize) -> Option<&Server> {
        self.servers.get(i).and_then(Option::as_ref)
    }

    /// Shuts down every remaining backend.
    pub fn shutdown(mut self) {
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawns_stops_one_and_shuts_down() {
        let mut fleet = Fleet::spawn(&FleetConfig {
            backends: 2,
            workers: 1,
            jobs: Some(1),
            ..FleetConfig::default()
        })
        .expect("spawn fleet");
        assert_eq!(fleet.addrs().len(), 2);
        assert_eq!(fleet.running(), 2);
        fleet.stop(0);
        assert_eq!(fleet.running(), 1);
        fleet.stop(0); // idempotent
        assert_eq!(fleet.running(), 1);
        fleet.shutdown();
    }

    #[test]
    fn zero_backends_is_an_error() {
        assert!(Fleet::spawn(&FleetConfig {
            backends: 0,
            ..FleetConfig::default()
        })
        .is_err());
    }
}
