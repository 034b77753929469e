"""From-scratch ciphers for the encryption middle-box.

- :mod:`repro.crypto.aes` — AES-128/192/256 block cipher (FIPS-197),
  the algorithm the paper's dm-crypt deployment uses with 256-bit keys;
  table-driven rounds, no Python call per byte, encryption only;
- :mod:`repro.crypto.modes` — CTR mode; an offset-derived counter
  gives the random-access property a block device needs, and one
  keystream is XORed over the whole buffer;
- :mod:`repro.crypto.stream` — the light-weight keystream cipher used
  for the measurable-overhead service in the paper's §V-A experiments.

These run real bytes (functional correctness); their *performance*
enters the simulation through per-byte CPU costs in
:class:`~repro.cloud.params.CloudParams`, not wall-clock time.
"""

from repro.crypto.aes import AES
from repro.crypto.modes import ctr_transform
from repro.crypto.stream import StreamCipher

__all__ = [
    "AES",
    "StreamCipher",
    "ctr_transform",
]
