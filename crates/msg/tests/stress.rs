//! Stress and interleaving tests for the message runtime: many collective
//! rounds, sub-communicators doing independent collectives,
//! clock-consistency invariants.

use atomio_msg::{run, NetCost};
use atomio_vtime::VNanos;

#[test]
fn subcommunicators_run_independent_collectives() {
    run(8, NetCost::fast_test(), |c| {
        let sub = c.split((c.rank() % 2) as u64);
        // Each group does a different number of collectives — must not
        // interfere with the other group's generations.
        let rounds = if c.rank() % 2 == 0 { 13 } else { 7 };
        let mut acc = 0u64;
        for _ in 0..rounds {
            acc = sub.allgather(1u64).iter().sum();
        }
        assert_eq!(acc, 4);
        // World barrier still works afterwards.
        c.barrier();
    });
}

#[test]
fn nested_splits() {
    run(8, NetCost::fast_test(), |c| {
        let half = c.split((c.rank() / 4) as u64); // {0..3}, {4..7}
        let quarter = half.split((half.rank() / 2) as u64); // pairs
        assert_eq!(quarter.size(), 2);
        let partner_world = quarter.allgather(c.rank() as u64);
        // Partners are adjacent world ranks.
        assert_eq!(partner_world[1], partner_world[0] + 1);
    });
}

#[test]
fn barrier_clock_is_max_plus_cost() {
    let skews: Vec<VNanos> = vec![0, 5_000, 100, 42_000];
    let skews2 = skews.clone();
    let out = run(4, NetCost::fast_test(), move |c| {
        c.compute(skews2[c.rank()]);
        c.barrier();
        c.clock().now()
    });
    let max_skew = *skews.iter().max().unwrap();
    for t in out {
        assert!(
            t >= max_skew,
            "barrier exit {t} before slowest arrival {max_skew}"
        );
        assert!(t < max_skew + 1_000_000, "barrier cost unreasonable: {t}");
    }
}

#[test]
fn large_payload_allgather() {
    let out = run(4, NetCost::fast_test(), |c| {
        let mine = vec![c.rank() as u8; 1 << 20];
        let all = c.allgather(mine);
        all.iter().map(|v| v.len()).sum::<usize>()
    });
    assert!(out.iter().all(|&n| n == 4 << 20));
}

#[test]
fn alltoallv_stress_varying_counts_many_rounds() {
    // 64 rounds of ragged alltoallv with round-dependent counts, verified
    // against the closed form, interleaved with barriers and an allgather.
    let p = 6;
    run(p, NetCost::fast_test(), |c| {
        for round in 0..64usize {
            let items: Vec<Vec<u64>> = (0..p)
                .map(|dst| {
                    let n = (c.rank() + dst + round) % 4; // 0..=3, often zero
                    vec![(round * 100 + c.rank() * 10 + dst) as u64; n]
                })
                .collect();
            let got = c.alltoallv(items);
            for (src, bucket) in got.iter().enumerate() {
                let n = (src + c.rank() + round) % 4;
                assert_eq!(
                    bucket,
                    &vec![(round * 100 + src * 10 + c.rank()) as u64; n],
                    "round {round}, src {src} -> dst {}",
                    c.rank()
                );
            }
            let received: u64 = got.iter().map(|b| b.len() as u64).sum();
            let total: u64 = c.allgather(received).iter().sum();
            if round % 8 == 0 {
                c.barrier();
            }
            // Every pair (src, dst) contributes (src+dst+round) % 4 items.
            let want: u64 = (0..p)
                .flat_map(|s| (0..p).map(move |d| ((s + d + round) % 4) as u64))
                .sum();
            assert_eq!(total, want);
        }
    });
}

#[test]
fn gatherv_stress_every_root_with_large_and_empty_payloads() {
    let p = 5;
    run(p, NetCost::fast_test(), |c| {
        for root in 0..p {
            // Rank r contributes r*8 KiB of its stamp byte; rank == root
            // contributes nothing that round.
            let mine = if c.rank() == root {
                Vec::new()
            } else {
                vec![c.rank() as u8; c.rank() * 8 * 1024]
            };
            let got = c.gatherv(root, mine);
            if c.rank() == root {
                let all = got.expect("root receives");
                for (r, payload) in all.iter().enumerate() {
                    if r == root {
                        assert!(payload.is_empty());
                    } else {
                        assert_eq!(payload.len(), r * 8 * 1024);
                        assert!(payload.iter().all(|&b| b == r as u8));
                    }
                }
            } else {
                assert!(got.is_none());
            }
        }
    });
}

#[test]
fn alltoallv_then_gatherv_in_subcommunicators() {
    // The vector collectives must respect sub-communicator generations just
    // like the fixed-size ones.
    run(8, NetCost::fast_test(), |c| {
        let sub = c.split((c.rank() % 2) as u64);
        let items: Vec<Vec<u32>> = (0..sub.size())
            .map(|d| vec![(sub.rank() * 10 + d) as u32])
            .collect();
        let got = sub.alltoallv(items);
        for (src, bucket) in got.iter().enumerate() {
            assert_eq!(bucket, &vec![(src * 10 + sub.rank()) as u32]);
        }
        let gathered = sub.gatherv(0, vec![c.rank() as u64]);
        if sub.rank() == 0 {
            let all = gathered.unwrap();
            assert_eq!(all.len(), sub.size());
        }
        c.barrier();
    });
}
