"""Simulated digital signatures.

The authenticated BFT-CUP model (Section III) assumes each process can sign
messages and that signatures are unforgeable: a Byzantine process cannot
fabricate or alter the participant detector of a correct process.  The
simulation enforces unforgeability structurally: producing a signature
requires the private :class:`~repro.crypto.signatures.SigningKey`, which is
handed only to the owning process, and verification recomputes the tag from
the registry's copy of the secret.
"""

from repro.crypto.signatures import (
    CanonicalMemo,
    KeyRegistry,
    SignatureError,
    SignedMessage,
    SigningKey,
)

__all__ = [
    "CanonicalMemo",
    "KeyRegistry",
    "SigningKey",
    "SignedMessage",
    "SignatureError",
]
