//! Correctness gates. Each gate is a pure check over an [`Observation`] — a
//! plain record of what the finished network looks like — so the tests can
//! feed a doctored observation and watch the gate fail.

use dcs_crypto::Hash256;

/// What one finished round looks like, as far as the gates care.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Broken internal invariants survived at runtime, summed over peers.
    pub internal_errors: u64,
    /// Gossiped blocks rejected at import, summed over peers.
    pub rejected_blocks: u64,
    /// Every replica holds the reference's block at the confirmation depth.
    pub replicas_agree: bool,
    /// `(tip, state root)` of every peer; the reference is peer 0.
    pub peers: Vec<(Hash256, Hash256)>,
    /// Account-model supply: `(Σ balances of allocated and proposer
    /// accounts, genesis allocation, Σ canonical coinbase value)`, or `None`
    /// for a network without balances.
    pub supply: Option<(u128, u128, u128)>,
    /// Transactions on the reference chain that nobody submitted.
    pub unknown_committed: u64,
    /// Forged-signature transactions injected.
    pub canaries: u64,
    /// Canaries found on any peer's canonical chain.
    pub canaries_committed: u64,
    /// `Mempool::rejected_invalid` of every peer.
    pub rejected_invalid: Vec<u64>,
    /// Client signatures that failed the out-of-simulation replay.
    pub signatures_invalid: u64,
}

/// One gate's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Gate name.
    pub gate: &'static str,
    /// Why it failed, or `None` if it passed.
    pub failure: Option<String>,
}

fn verdict(gate: &'static str, ok: bool, why: impl FnOnce() -> String) -> Verdict {
    Verdict {
        gate,
        failure: (!ok).then(why),
    }
}

/// Runs every gate over `obs`.
pub fn check(obs: &Observation) -> Vec<Verdict> {
    let reference = obs.peers.first().copied().unwrap_or_default();
    let root_mismatch = obs
        .peers
        .iter()
        .filter(|(tip, root)| *tip == reference.0 && *root != reference.1)
        .count();
    let mut out = vec![
        verdict(
            "healthy",
            obs.internal_errors == 0 && obs.rejected_blocks == 0,
            || {
                format!(
                    "internal_errors={} rejected_blocks={}",
                    obs.internal_errors, obs.rejected_blocks
                )
            },
        ),
        verdict("replicas_agree", obs.replicas_agree, || {
            "replicas disagree at the confirmation depth".into()
        }),
        verdict("state_roots", root_mismatch == 0, || {
            format!("{root_mismatch} peers share the reference tip but not its state root")
        }),
        verdict("only_submitted", obs.unknown_committed == 0, || {
            format!(
                "{} committed transactions were never submitted",
                obs.unknown_committed
            )
        }),
        verdict("signatures_valid", obs.signatures_invalid == 0, || {
            format!(
                "{} client signatures failed the replay",
                obs.signatures_invalid
            )
        }),
    ];
    if let Some((balances, alloc, minted)) = obs.supply {
        out.push(verdict("supply", balances == alloc + minted, || {
            format!("balances {balances} != allocation {alloc} + coinbase {minted}")
        }));
    }
    if obs.canaries > 0 {
        let wrong: Vec<usize> = obs
            .rejected_invalid
            .iter()
            .enumerate()
            .filter(|(_, r)| **r != obs.canaries)
            .map(|(i, _)| i)
            .collect();
        out.push(verdict(
            "canaries_uncommitted",
            obs.canaries_committed == 0,
            || format!("{} forged transactions committed", obs.canaries_committed),
        ));
        out.push(verdict("canaries_refused", wrong.is_empty(), || {
            format!(
                "peers {wrong:?} refused a number of forged transactions other than {}",
                obs.canaries
            )
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> Observation {
        let tip = dcs_crypto::sha256(b"tip");
        let root = dcs_crypto::sha256(b"root");
        Observation {
            replicas_agree: true,
            peers: vec![(tip, root); 4],
            supply: Some((1_000, 900, 100)),
            canaries: 2,
            rejected_invalid: vec![2; 4],
            ..Observation::default()
        }
    }

    fn failed(obs: &Observation) -> Vec<&'static str> {
        check(obs)
            .into_iter()
            .filter(|v| v.failure.is_some())
            .map(|v| v.gate)
            .collect()
    }

    #[test]
    fn a_healthy_observation_passes_every_gate() {
        assert!(failed(&healthy()).is_empty());
    }

    #[test]
    fn each_doctored_input_fails_its_gate() {
        type Doctor = fn(&mut Observation);
        let cases: Vec<(&str, Doctor)> = vec![
            ("healthy", |o| o.internal_errors = 1),
            ("healthy", |o| o.rejected_blocks = 1),
            ("replicas_agree", |o| o.replicas_agree = false),
            ("state_roots", |o| o.peers[2].1 = Hash256::ZERO),
            ("only_submitted", |o| o.unknown_committed = 1),
            ("supply", |o| o.supply = Some((999, 900, 100))),
            ("canaries_uncommitted", |o| o.canaries_committed = 1),
            ("canaries_refused", |o| o.rejected_invalid[3] = 1),
            ("signatures_valid", |o| o.signatures_invalid = 1),
        ];
        for (gate, doctor) in cases {
            let mut obs = healthy();
            doctor(&mut obs);
            assert_eq!(failed(&obs), vec![gate], "doctoring for {gate}");
        }
    }

    #[test]
    fn peers_on_another_tip_may_hold_another_root() {
        let mut obs = healthy();
        obs.peers[1] = (Hash256::ZERO, Hash256::ZERO);
        assert!(failed(&obs).is_empty());
    }
}
