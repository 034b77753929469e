"""Case study 2: data encryption (paper §V-B2).

:class:`EncryptionService` is the middle-box variant: write payloads
are encrypted on the way to storage, read payloads decrypted on the
way back, transparently to the VM (no volume reformatting, unlike the
client-side approach).  Position-dependent keystream (AES-CTR keyed by
volume offset, or the §V-A stream cipher) keeps every 16-byte-aligned
range independently accessible.

:class:`TenantSideEncryption` is the dm-crypt-in-guest comparator the
paper measures against: the application thread burns tenant-VM CPU for
the cipher *and* the spinlock-wait dm-crypt exhibits while flushing.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.params import CloudParams
from repro.core.middlebox import StorageService
from repro.crypto.aes import AES
from repro.crypto.modes import ctr_transform
from repro.crypto.stream import StreamCipher
from repro.iscsi.pdu import DataInPdu, ScsiCommandPdu

DEFAULT_KEY = bytes(range(32))


def _aes_ctr(aes: AES, data: bytes, offset: int) -> bytes:
    """AES-CTR at volume byte ``offset``: counter block ``offset // 16``.

    Any other offset would silently start the keystream at the wrong
    byte, so an offset off the 16-byte grid is refused.
    """
    if offset % 16:
        raise ValueError(
            f"AES-CTR offset {offset} must be 16-byte aligned (one counter per 16-byte block)"
        )
    return ctr_transform(aes, data, start_counter=offset // 16)


class EncryptionService(StorageService):
    """On-the-fly encryption/decryption in a middle-box."""

    name = "encryption"
    #: payloads are rewritten in flight: the integrity layer re-stamps
    #: the payload MAC under this hop's key (encrypted-chain mode)
    transforms_payload = True

    def __init__(
        self,
        algorithm: str = "aes-256",
        key: Optional[bytes] = None,
        params: Optional[CloudParams] = None,
    ):
        super().__init__()
        params = params or CloudParams()
        self.algorithm = algorithm
        if algorithm == "aes-256":
            self._aes = AES(key or DEFAULT_KEY)
            self._stream = None
            self.cpu_per_byte = params.aes_cpu_per_byte
        elif algorithm == "stream":
            self._aes = None
            self._stream = StreamCipher(
                int.from_bytes((key or DEFAULT_KEY)[:8], "little") or 1
            )
            self.cpu_per_byte = params.stream_cipher_cpu_per_byte
        else:
            raise ValueError(f"unknown algorithm {algorithm!r} (aes-256 or stream)")
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0

    def _transform(self, data: bytes, offset: int) -> bytes:
        if self._aes is not None:
            return _aes_ctr(self._aes, data, offset)
        return self._stream.transform(data, byte_offset=offset)

    def _scope(self) -> str:
        mb = self.middlebox
        return mb.tenant.name if mb is not None else ""

    def transform_upstream(self, pdu):
        if isinstance(pdu, ScsiCommandPdu) and pdu.op == "write" and pdu.data is not None:
            pdu.data = self._transform(pdu.data, pdu.offset)
            self.bytes_encrypted += pdu.length
            if self.obs is not None:
                self.obs.metrics.counter("svc.encrypt_bytes", self._scope()).inc(
                    pdu.length
                )
        return pdu

    def transform_downstream(self, pdu):
        if isinstance(pdu, DataInPdu) and pdu.data is not None:
            pdu.data = self._transform(pdu.data, pdu.offset)
            self.bytes_decrypted += pdu.length
            if self.obs is not None:
                self.obs.metrics.counter("svc.decrypt_bytes", self._scope()).inc(
                    pdu.length
                )
        return pdu

    def encrypt_volume(self, volume) -> int:
        """Offline: convert an existing plaintext image (e.g. a freshly
        formatted filesystem) to ciphertext under this service's key, so
        on-the-fly decryption of pre-existing data is coherent."""
        return volume.transform_sync(lambda offset, data: self._transform(data, offset))


class TenantSideEncryption:
    """The in-guest dm-crypt comparator: same cipher, tenant CPU.

    Wraps a VM's iSCSI session.  Every write blocks the calling
    application thread for the cipher cost plus dm-crypt's
    spinlock-wait overhead, charged to the *tenant VM's* vCPUs — the
    interference the paper's Figures 10/11 quantify.
    """

    def __init__(self, vm, session, params: Optional[CloudParams] = None, key: Optional[bytes] = None):
        self.vm = vm
        self.session = session
        self.params = params or CloudParams()
        self._aes = AES(key or DEFAULT_KEY)
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0

    def _cipher_cost(self, length: int) -> float:
        return self.params.aes_cpu_per_byte * length

    def _spinlock_cost(self, length: int) -> float:
        return self.params.dmcrypt_spinlock_per_byte * length

    def write(self, offset: int, length: int, data: Optional[bytes] = None):
        """Process: encrypt in-guest (blocking the app thread), then write."""
        yield from self.vm.cpu.consume(self._cipher_cost(length) + self._spinlock_cost(length))
        if data is not None:
            data = _aes_ctr(self._aes, data, offset)
        self.bytes_encrypted += length
        yield self.session.write(offset, length, data)

    def read(self, offset: int, length: int):
        """Process: read, then decrypt in-guest."""
        data = yield self.session.read(offset, length)
        yield from self.vm.cpu.consume(self._cipher_cost(length))
        self.bytes_decrypted += length
        if data is not None:
            data = _aes_ctr(self._aes, data, offset)
        return data

    def encrypt_volume(self, volume) -> int:
        """Offline: convert an existing plaintext image to ciphertext
        under this guest's key (the volume-format step the paper notes
        client-side encryption requires)."""
        return volume.transform_sync(lambda offset, data: _aes_ctr(self._aes, data, offset))
