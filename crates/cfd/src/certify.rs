//! Topology certification: the distributed layer's contribution to the
//! compile certificate.
//!
//! A decomposed sweep makes two claims the node-local census cannot
//! carry:
//!
//! * **routing legality** — every halo message between neighbouring
//!   parts travels a minimal dimension-ordered (e-cube) path over the
//!   Gray embedding, one link per hop;
//! * **window coverage** — the overlap split's windows tile each part's
//!   *owned* layers exactly once (no layer skipped, none computed
//!   twice), which is the whole correctness argument for splitting a
//!   sweep into interior and boundary-shell phases.
//!
//! [`halo_routes`] and [`window_coverage`] transcribe those claims from
//! a [`Partition`]; [`SweepEngine::compile`](crate::SweepEngine::compile)
//! staples them onto the sweep's base compile certificate with
//! `CompileCertificate::with_topology` and records the result in the
//! session's certificate log. `nsc_cert::verify` then re-derives the
//! e-cube law and the tiling from scratch — a forged hop or a window gap
//! is rejected even though the emitter transcribed it faithfully.

use crate::partition::{HaloSpec, Partition, SweepSplit};
use nsc_cert::{CoverageCert, RouteCert, WindowSpan};

/// The dimension-ordered route from `from` to `to`, inclusive of both
/// endpoints, correcting the lowest differing bit first — the same walk
/// as `nsc_arch::HypercubeConfig::ecube_route`, on raw addresses so the
/// emitter needs no cube handle.
fn ecube_path(from: u64, to: u64) -> Vec<u64> {
    let mut path = vec![from];
    let mut cur = from;
    let mut diff = from ^ to;
    while diff != 0 {
        let bit = diff & diff.wrapping_neg();
        cur ^= bit;
        diff ^= bit;
        path.push(cur);
    }
    path
}

/// One [`RouteCert`] per directed halo message `spec` makes a partition
/// exchange: for every pair of parts abutting along exactly one split
/// axis, the lower part's top owned layers travel up (refreshing the
/// upper part's low ghosts) when the spec wants low faces, and vice
/// versa. `words` is the face area — walked by
/// [`crate::Part::face_runs`], as the router exchange walks it — times
/// the ghost depth; the path is the e-cube route between the parts'
/// nodes.
pub fn halo_routes(partition: &dyn Partition, spec: &HaloSpec) -> Vec<RouteCert> {
    let parts = partition.parts();
    let mut routes = Vec::new();
    for i in 0..parts.len() {
        for j in 0..parts.len() {
            if i == j {
                continue;
            }
            let (lo, hi) = (&parts[i], &parts[j]);
            // `lo` is `hi`'s lower neighbour along `axis` when their owned
            // ranges abut there and coincide on every other axis.
            let abuts = |a: usize| {
                lo.spans[a].start + lo.spans[a].len == hi.spans[a].start
                    && (0..3).filter(|&o| o != a).all(|o| {
                        lo.spans[o].start == hi.spans[o].start && lo.spans[o].len == hi.spans[o].len
                    })
            };
            let Some(axis) = (0..3).find(|&a| abuts(a)) else { continue };
            if lo.spans[axis].hi_ghost == 0 || hi.spans[axis].lo_ghost == 0 {
                continue;
            }
            let mut face = 0;
            lo.face_runs(axis, lo.spans[axis].start, |_, len| face += len as u64);
            let words = face * spec.layers as u64;
            let [want_lo, want_hi] = spec.faces[axis];
            if want_lo {
                routes.push(RouteCert {
                    from: lo.node.0 as u64,
                    to: hi.node.0 as u64,
                    words,
                    path: ecube_path(lo.node.0 as u64, hi.node.0 as u64),
                });
            }
            if want_hi {
                routes.push(RouteCert {
                    from: hi.node.0 as u64,
                    to: lo.node.0 as u64,
                    words,
                    path: ecube_path(hi.node.0 as u64, lo.node.0 as u64),
                });
            }
        }
    }
    routes
}

/// One [`CoverageCert`] per part: the owned layer range along the
/// overlap axis (in local layer coordinates, ghosts counted) and the
/// split windows claimed to tile it. `splits` must be in partition
/// order, one per part — exactly what the sweep engine holds.
pub fn window_coverage(partition: &dyn Partition, splits: &[SweepSplit]) -> Vec<CoverageCert> {
    let axis = partition.shape().overlap_axis();
    partition
        .parts()
        .iter()
        .zip(splits)
        .enumerate()
        .map(|(pi, (p, split))| {
            let sp = &p.spans[axis];
            CoverageCert {
                part: pi as u32,
                node: p.node.0 as u64,
                owned_start: sp.lo_ghost as u64,
                owned_len: sp.len as u64,
                windows: split
                    .windows()
                    .map(|w| WindowSpan {
                        start: w.start as u64,
                        len: w.len as u64,
                        slot: w.slot as u32,
                    })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{BlockPartition, GridShape};
    use nsc_arch::HypercubeConfig;

    #[test]
    fn ecube_paths_match_the_arch_router() {
        let cube = HypercubeConfig::new(6);
        for (from, to) in [(0u16, 0u16), (0b000111, 0b101010), (5, 2), (63, 0)] {
            let arch: Vec<u64> = cube
                .ecube_route(nsc_arch::NodeId(from), nsc_arch::NodeId(to))
                .into_iter()
                .map(|n| n.0 as u64)
                .collect();
            assert_eq!(ecube_path(from as u64, to as u64), arch, "{from} -> {to}");
        }
    }

    #[test]
    fn strip_routes_pair_every_interior_boundary_both_ways() {
        let cube = HypercubeConfig::new(2);
        let strips = BlockPartition::new(GridShape::volume3d(4, 4, 12), cube.torus2d(4, 1))
            .expect("decomposes");
        let routes = halo_routes(&strips, &HaloSpec::stencil());
        // 3 interior boundaries, one message each way.
        assert_eq!(routes.len(), 6);
        for r in &routes {
            assert_eq!(r.path.len(), 2, "Gray-adjacent strips are one hop apart");
            assert_eq!(r.path.first(), Some(&r.from));
            assert_eq!(r.path.last(), Some(&r.to));
            assert_eq!(r.words, 4 * 4, "one xy-face per layer");
        }
        // A one-sided spec halves the message count.
        assert_eq!(halo_routes(&strips, &HaloSpec::face(2, false)).len(), 3);
    }

    #[test]
    fn block_routes_cover_both_split_axes() {
        let torus = HypercubeConfig::new(2).torus2d(2, 2);
        let blocks = BlockPartition::new(GridShape::plane2d(9, 11), torus).expect("decomposes");
        let routes = halo_routes(&blocks, &HaloSpec::stencil());
        // 2 row boundaries + 2 column boundaries, both directions.
        assert_eq!(routes.len(), 8);
        for r in &routes {
            assert_eq!(r.path.len(), 2, "torus-adjacent blocks are one hop apart");
        }
    }

    #[test]
    fn coverage_tiles_the_owned_layers() {
        let cube = HypercubeConfig::new(2);
        let strips = BlockPartition::new(GridShape::volume3d(4, 4, 12), cube.torus2d(4, 1))
            .expect("decomposes");
        let axis = strips.shape().overlap_axis();
        let spec = HaloSpec::stencil();
        let splits: Vec<SweepSplit> =
            strips.parts().iter().map(|p| p.overlap_split(axis, &spec)).collect();
        let coverage = window_coverage(&strips, &splits);
        assert_eq!(coverage.len(), 4);
        for c in &coverage {
            let mut spans: Vec<(u64, u64)> = c.windows.iter().map(|w| (w.start, w.len)).collect();
            spans.sort_unstable();
            let mut next = c.owned_start;
            for (s, l) in spans {
                assert_eq!(s, next, "gapless from the owned start");
                next = s + l;
            }
            assert_eq!(next, c.owned_start + c.owned_len, "ends at the owned end");
        }
    }
}
