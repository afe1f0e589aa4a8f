//! Seeded input generators. The product only ever receives what these
//! produce; the same `--seed` gives the same inputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::api::RandomConfig;

/// The seed the repo's standing numbers were taken with.
pub const DEFAULT_SEED: u64 = 20140622;

/// An independent stream per purpose, so adding a generator never shifts
/// the inputs of another.
pub fn stream(seed: u64, purpose: &str) -> StdRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// `Database::generate` seed: the repo's standing seed at the default
/// `--seed`, so the Table-3 shape (8 executions over 5 contours) can be
/// pinned there; derived from `--seed` otherwise.
pub fn datagen_seed(seed: u64, standing: u64) -> u64 {
    if seed == DEFAULT_SEED {
        standing
    } else {
        stream(seed, "datagen").random::<u64>() ^ standing
    }
}

/// `n` locations uniform in `[0,1]^d`, as fractions of each ESS axis.
pub fn offgrid_fractions(seed: u64, query: &str, d: usize, n: usize) -> Vec<Vec<f64>> {
    let mut rng = stream(seed, query);
    (0..n)
        .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
        .collect()
}

/// The `k`-th candidate configuration for the compile ladder's random draw
/// with `dims` error dimensions. Candidates are tried in order until one
/// identifies, so a seed whose first draw is degenerate still has a ladder.
pub fn random_config(seed: u64, dims: usize, k: u64) -> RandomConfig {
    let mut rng = stream(seed, if dims == 2 { "random-2d" } else { "random-3d" });
    let mut draw = rng.random::<u64>();
    for _ in 0..k {
        draw = rng.random::<u64>();
    }
    RandomConfig {
        relations: dims + 2,
        dims,
        decades: 3.0,
        resolution: 12,
        seed: draw,
    }
}

/// One served request of the `serve` mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRequest {
    /// Index into the server's loaded workloads.
    pub workload: usize,
    pub fractions: Vec<f64>,
    pub optimized: bool,
}

/// Endless request mix of one client: workload uniform over `dims.len()`
/// entries, fractions uniform, driver by coin flip.
pub struct Mix {
    rng: StdRng,
    dims: Vec<usize>,
}

impl Mix {
    pub fn new(seed: u64, client: usize, dims: &[usize]) -> Mix {
        Mix {
            rng: stream(seed, &format!("serve-client-{client}")),
            dims: dims.to_vec(),
        }
    }
}

impl Iterator for Mix {
    type Item = MixRequest;

    fn next(&mut self) -> Option<MixRequest> {
        let workload = self.rng.random_range(0..self.dims.len());
        let fractions = (0..self.dims[workload])
            .map(|_| self.rng.random::<f64>())
            .collect();
        Some(MixRequest {
            workload,
            fractions,
            optimized: self.rng.random::<f64>() < 0.5,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_mix() {
        let a: Vec<MixRequest> = Mix::new(7, 0, &[1, 2, 3]).take(200).collect();
        let b: Vec<MixRequest> = Mix::new(7, 0, &[1, 2, 3]).take(200).collect();
        assert_eq!(a, b);
        let other_client: Vec<MixRequest> = Mix::new(7, 1, &[1, 2, 3]).take(200).collect();
        assert_ne!(a, other_client);
        let other_seed: Vec<MixRequest> = Mix::new(8, 0, &[1, 2, 3]).take(200).collect();
        assert_ne!(a, other_seed);
        for r in &a {
            assert_eq!(r.fractions.len(), [1, 2, 3][r.workload]);
            assert!(r.fractions.iter().all(|f| (0.0..1.0).contains(f)));
        }
        // Every workload and both drivers appear.
        for w in 0..3 {
            assert!(a.iter().any(|r| r.workload == w));
        }
        assert!(a.iter().any(|r| r.optimized) && a.iter().any(|r| !r.optimized));
    }

    #[test]
    fn same_seed_same_locations() {
        let a = offgrid_fractions(11, "3D_H_Q5", 3, 500);
        assert_eq!(a, offgrid_fractions(11, "3D_H_Q5", 3, 500));
        assert_ne!(a, offgrid_fractions(12, "3D_H_Q5", 3, 500));
        assert_ne!(a, offgrid_fractions(11, "4D_DS_Q7", 3, 500));
        assert!(a.iter().all(|f| f.len() == 3));
    }

    #[test]
    fn same_seed_same_random_workloads() {
        use crate::api::random_workload;
        for dims in [2, 3] {
            let (a, b) = (random_config(5, dims, 0), random_config(5, dims, 0));
            assert_eq!(a.seed, b.seed);
            let (wa, wb) = (random_workload(&a), random_workload(&b));
            assert_eq!(wa.query, wb.query);
            assert_eq!(wa.ess, wb.ess);
            assert_ne!(a.seed, random_config(6, dims, 0).seed);
            assert_ne!(a.seed, random_config(5, dims, 1).seed);
        }
    }

    #[test]
    fn default_seed_keeps_the_standing_datagen_seeds() {
        assert_eq!(datagen_seed(DEFAULT_SEED, 7), 7);
        assert_ne!(datagen_seed(7, 7), 7);
        assert_eq!(datagen_seed(7, 7), datagen_seed(7, 7));
        assert_ne!(datagen_seed(7, 11), datagen_seed(7, 13));
    }
}
