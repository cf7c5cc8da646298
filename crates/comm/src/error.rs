//! Typed communication errors. The runtime used to panic on every
//! anomaly (`expect("destination rank hung up")`, `expect("world shut
//! down mid-wait")`); at scale, transient faults are the norm, so they
//! surface as values a driver can react to — retry, restart from a
//! checkpoint, or report with enough context to debug.

use msc_core::error::MscError;
use std::fmt;

/// A fault observed by the message-passing runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A posted receive did not complete within the world's deadline
    /// while its source was alive: the pending `(src, tag)` pair, and how
    /// many unrelated messages sat in the unexpected-message stash.
    Timeout {
        src: usize,
        tag: u64,
        stash_depth: usize,
    },
    /// A peer left the fabric — its thread exited or panicked — so a send
    /// had nowhere to go, or a wait on it can never complete.
    RankDead { rank: usize },
    /// A payload arrived whose length is not that of the halo box it was
    /// posted for: the peer runs another plan.
    Corrupt { src: usize, tag: u64 },
    /// The chaos plan killed this rank at the given exchange round.
    Killed { rank: usize, exchange: u64 },
    /// A rank's closure panicked; the world's results are unusable.
    WorldPoisoned { rank: usize, message: String },
    /// The membership layer declared a peer dead: it went silent past the
    /// detection timeout (or its endpoint hung up) *and* its thread has
    /// actually exited. Unlike [`CommError::RankDead`] this is a
    /// recoverable control signal — the distributed driver reacts by
    /// promoting a hot spare instead of failing the run.
    RankSuspect { rank: usize, silent_ms: u64 },
    /// The membership epoch advanced while this rank was mid-operation:
    /// another rank died and a recovery is in progress. The driver rolls
    /// this rank back to the agreed generation and resumes; this variant
    /// never escapes a resilient run.
    EpochChange { epoch: u64 },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                src,
                tag,
                stash_depth,
            } => write!(
                f,
                "receive timed out waiting for (src {src}, tag {tag}); {stash_depth} unrelated \
                 message(s) stashed"
            ),
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead (endpoint hung up)"),
            CommError::Corrupt { src, tag } => {
                write!(f, "corrupt payload from (src {src}, tag {tag}): length mismatch")
            }
            CommError::Killed { rank, exchange } => {
                write!(f, "chaos plan killed rank {rank} at exchange {exchange}")
            }
            CommError::WorldPoisoned { rank, message } => {
                write!(f, "world poisoned: rank {rank} panicked: {message}")
            }
            CommError::RankSuspect { rank, silent_ms } => {
                write!(f, "rank {rank} suspected dead after {silent_ms} ms of silence")
            }
            CommError::EpochChange { epoch } => {
                write!(f, "membership epoch advanced to {epoch} (online recovery in progress)")
            }
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for MscError {
    fn from(e: CommError) -> MscError {
        MscError::Comm(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_display_names_pending_pair() {
        let e = CommError::Timeout {
            src: 3,
            tag: 0x207,
            stash_depth: 2,
        };
        let s = e.to_string();
        assert!(s.contains("src 3"), "{s}");
        assert!(s.contains(&format!("tag {}", 0x207)), "{s}");
        assert!(s.contains("2 unrelated"), "{s}");
    }

    #[test]
    fn converts_into_msc_error() {
        let e: MscError = CommError::RankDead { rank: 7 }.into();
        assert!(e.to_string().contains("rank 7"));
        assert!(e.to_string().contains("communication failure"));
    }
}
