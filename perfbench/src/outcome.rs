//! What one iteration produced: output bits, exact counts and simulated
//! figures.

use crate::stats::Checksum;
use nsc_sim::PerfCounters;

/// Simulated figures of one iteration. Bit-deterministic for a given
/// seed: a host-only change must leave every one of them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimFigures {
    /// Simulated seconds per iteration: the critical-path node's compute
    /// plus unhidden communication (the park makespan for `ensemble`).
    pub sim_s: f64,
    /// Critical-path compute seconds (summed over members for `ensemble`).
    pub compute_s: f64,
    /// Critical-path communication seconds, hidden part included.
    pub comm_s: f64,
    /// Critical-path communication seconds hidden under compute.
    pub hidden_s: f64,
    /// Simulated flops across every node.
    pub flops: u64,
}

impl SimFigures {
    /// The figures of a run from its per-node counter deltas.
    pub fn from_nodes(per_node: &[PerfCounters], clock_hz: u64) -> Self {
        let mut fig = SimFigures::default();
        let mut critical: Option<&PerfCounters> = None;
        for c in per_node {
            fig.flops += c.flops;
            let s = c.seconds_with_comm(clock_hz);
            if critical.is_none() || s > fig.sim_s {
                fig.sim_s = s;
                critical = Some(c);
            }
        }
        if let Some(c) = critical {
            fig.compute_s = c.seconds(clock_hz);
            fig.comm_s = c.comm_ns as f64 * 1e-9;
            fig.hidden_s = c.comm_hidden_ns as f64 * 1e-9;
        }
        fig
    }
}

/// The exact counts of one iteration. Two iterations on the same seed
/// must agree on every field; compile-cache counters stay out because
/// concurrent park leases race to compile a shape first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub flops: u64,
    pub sim_s_bits: u64,
    /// Ping-pong pairs (`jacobi3d`, `cavity`) or V-cycles (`ensemble`).
    pub pairs: u64,
    /// Words the halo exchanges moved. Only the traced path sees the
    /// individual exchanges, so untraced iterations leave it unset.
    pub halo_words: Option<u64>,
    pub certs: u64,
    pub checksum: u64,
}

impl Fingerprint {
    /// Whether two fingerprints agree on every field both carry.
    pub fn agrees(&self, other: &Fingerprint) -> bool {
        let halo = match (self.halo_words, other.halo_words) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        halo && Fingerprint { halo_words: None, ..*self }
            == Fingerprint { halo_words: None, ..*other }
    }
}

/// One iteration's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output fields, in a fixed order (grids, then scalar traces).
    pub outputs: Vec<Vec<f64>>,
    pub sim: SimFigures,
    pub pairs: u64,
    pub halo_words: Option<u64>,
    pub certs: u64,
    /// Per member (one for a single solve): the error it ended with, if
    /// any; an errored member's outputs are empty.
    pub member_errors: Vec<Option<String>>,
    /// Resident memory pages across the machine's planes after the run
    /// (0 where the nodes are not reachable from outside, in the park).
    pub resident_pages: u64,
}

impl Outcome {
    pub fn fingerprint(&self) -> Fingerprint {
        let mut sum = Checksum::new();
        for o in &self.outputs {
            sum.add(o);
        }
        Fingerprint {
            flops: self.sim.flops,
            sim_s_bits: self.sim.sim_s.to_bits(),
            pairs: self.pairs,
            halo_words: self.halo_words,
            certs: self.certs,
            checksum: sum.value(),
        }
    }
}

/// Compare two fields bit for bit; the error names the first mismatch.
pub fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, reference has {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()) {
        Some(i) => Err(format!("{what}[{i}] = {:e}, reference {:e}", got[i], want[i])),
        None => Ok(()),
    }
}
