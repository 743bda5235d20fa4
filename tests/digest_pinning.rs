//! Receipt-stream digest pinning: the continuous pipeline's per-tick
//! digests for a fixed configuration, as produced by `rcloak simulate
//! --ticks 6 --cars 300 --grid 8x8 --owners 8 --cadence 2 [--engine
//! rple]` at the default seed.
//!
//! [`TickReport::digest`] folds every issued `(owner, payload.encode())`
//! pair in order, so equality here proves a refactor changed **no byte
//! of any receipt**: same draws, same regions, same metadata. If an
//! intentional protocol change ever breaks these constants, re-pin them
//! from a trusted build and say so loudly in the commit.
//!
//! # Pin history
//!
//! * **Wire v1** (retired): pinned before the allocation-free hot-path
//!   refactor, under the xoshiro-based `DrawStream`, per-request
//!   generated keys, and the epoch-less payload encoding. First RGE
//!   digest was `0x08ab_1b44_f5d6_ed3e`, first RPLE
//!   `0x5527_b17e_13ee_f68c`. Those constants are unreachable by any
//!   current build: the keystream is now a ChaCha20-class sponge, keys
//!   come from the per-owner forward-secret chain, and payloads encode
//!   wire v2 (with the chain epoch). v1 payload bytes are explicitly
//!   rejected at decode.
//! * **Wire v2** (current): pinned below from the first trusted build of
//!   the forward-secret keystream.
//! * **Four-shard stream** (new pin, not a re-pin): a [`ShardedPipeline`]
//!   over four partitions, pinned per tick by its combined digest, its
//!   per-shard digests and its owner handoffs. Masked per-shard
//!   snapshots make this stream differ from the unsharded one, so it had
//!   no pin of its own before; it was taken from the wire-v2 build that
//!   still ran a separate sharded tick loop, and the single tick core
//!   must reproduce it.

use anonymizer::{
    AnonymizerConfig, ContinuousPipeline, EngineChoice, PipelineConfig, ShardedPipeline,
};
use mobisim::SimConfig;
use roadnet::grid_city;

/// The exact configuration `rcloak simulate` builds for
/// `--ticks 6 --cars 300 --grid 8x8 --owners 8 --cadence 2 --seed 42`.
fn pipeline(engine: EngineChoice) -> ContinuousPipeline {
    let seed = 42u64;
    ContinuousPipeline::new(
        grid_city(8, 8, 100.0),
        SimConfig {
            cars: 300,
            seed,
            ..Default::default()
        },
        AnonymizerConfig {
            engine,
            ..Default::default()
        },
        PipelineConfig {
            dt: 10.0,
            snapshot_cadence: 2,
            tracked_owners: 8,
            seed: seed ^ 0x51e_71c4,
            verify: true,
            lbs_probes: 4,
            ..Default::default()
        },
    )
}

fn digests(engine: EngineChoice) -> Vec<u64> {
    let mut p = pipeline(engine);
    p.run(6)
        .expect("pinned configuration verifies cleanly")
        .iter()
        .map(|r| r.digest)
        .collect()
}

#[test]
fn rge_receipt_stream_matches_the_wire_v2_baseline() {
    assert_eq!(
        digests(EngineChoice::Rge),
        vec![
            0x80b0_db4a_cb22_03c2,
            0x8abc_8fb3_46ae_24ed,
            0x45e0_1569_0f5d_b844,
            0x84ba_02b9_0b5c_1c54,
            0x9bf8_eea3_2748_8aed,
            0x69a6_08af_9f9c_ddd5,
        ]
    );
}

#[test]
fn rple_receipt_stream_matches_the_wire_v2_baseline() {
    assert_eq!(
        digests(EngineChoice::Rple { t_len: 12 }),
        vec![
            0x4d8a_3233_7429_d395,
            0x3ea2_27cb_a300_88b1,
            0xd288_6a78_07e8_0d87,
            0xcb7e_5a0b_a2e9_4502,
            0xd28f_15d0_4369_be8d,
            0x17d3_11e0_64c5_c3d9,
        ]
    );
}

/// Per tick: combined digest, per-shard digests, owner handoffs.
type ShardedTick = (u64, Vec<u64>, usize);

/// Four shards over the sharded-pipeline test world: an 8x8 grid, 400
/// cars at seed 23, 10 tracked owners, 6 ticks.
fn sharded_stream() -> Vec<ShardedTick> {
    let mut p = ShardedPipeline::new(
        grid_city(8, 8, 100.0),
        SimConfig {
            cars: 400,
            seed: 23,
            ..Default::default()
        },
        AnonymizerConfig::default(),
        PipelineConfig {
            tracked_owners: 10,
            ..Default::default()
        },
        4,
    );
    p.run(6)
        .expect("pinned configuration verifies cleanly")
        .into_iter()
        .map(|r| (r.digest, r.shard_digests, r.handoffs))
        .collect()
}

#[test]
fn four_shard_receipt_stream_matches_its_baseline() {
    let stream = sharded_stream();
    assert!(
        stream
            .iter()
            .map(|(_, _, handoffs)| handoffs)
            .sum::<usize>()
            > 0,
        "the pinned run crosses a partition boundary"
    );
    assert_eq!(
        stream,
        vec![
            (
                0x531d_4292_5f7f_f6ea,
                vec![
                    0x90bc_598b_6634_04f6,
                    0x9063_1284_b03e_114d,
                    0xcbf2_9ce4_8422_2325,
                    0x678f_2188_2390_c9ea,
                ],
                3,
            ),
            (
                0xecad_6150_340d_5093,
                vec![
                    0xabba_9cf7_e8ef_b83f,
                    0x2143_aaef_7df0_294b,
                    0xc516_5b54_60bf_c052,
                    0xa176_ffab_8818_bbbb,
                ],
                6,
            ),
            (
                0x9851_8a7a_eaf0_3b6d,
                vec![
                    0x26bc_3061_3492_9e01,
                    0x38b9_92f6_4470_9281,
                    0x9380_46be_f5c9_5c3e,
                    0xdc04_7780_e7ac_eec3,
                ],
                1,
            ),
            (
                0x9212_0b35_c3ff_9fbc,
                vec![
                    0x39ce_74f3_ba85_cdca,
                    0xb3fb_af28_79d8_387d,
                    0xcfb2_24ea_b831_6eb1,
                    0xc347_9452_74d3_704a,
                ],
                2,
            ),
            (
                0xb4b8_0d66_8350_4b2b,
                vec![
                    0xaf67_d0a1_f4cc_9866,
                    0x003c_c5a8_5c62_d5bd,
                    0xedc3_1357_98b6_9c62,
                    0x4dd4_8973_48d8_2eab,
                ],
                1,
            ),
            (
                0xe5e6_ef63_42df_e6ab,
                vec![
                    0x724d_6713_de26_bbeb,
                    0xfc1e_3538_c1ae_8e5a,
                    0x322a_764e_1ddd_40e3,
                    0x280d_a711_6ee9_f10d,
                ],
                2,
            ),
        ]
    );
}
