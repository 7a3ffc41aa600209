"""Inner BFT consensus executed by the sink / core members.

Algorithm 3 of the paper treats the consensus run among the sink members as
a black box ("a traditional consensus protocol, e.g. PBFT [22]").  This
package provides that black box: a from-scratch, single-shot, signed,
PBFT-style protocol (pre-prepare / prepare / commit with view changes) whose
quorum size follows the paper's requirement that every quorum contains at
least ``⌈(|Vsink| + f + 1) / 2⌉`` sink processes.
"""

from repro.pbft.messages import Commit, NewView, PrePrepare, Prepare, PreparedCertificate, ViewChange
from repro.pbft.quorum import classic_quorum, paper_quorum
from repro.pbft.replica import SingleShotPbft

__all__ = [
    "PrePrepare",
    "Prepare",
    "Commit",
    "ViewChange",
    "NewView",
    "PreparedCertificate",
    "paper_quorum",
    "classic_quorum",
    "SingleShotPbft",
]
