"""Structured pass/fail records for verified claims."""

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field


def digest_of(obj):
    """Stable content hash of a JSON-serializable input description."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Certificate:
    claim_id: str
    status: str                      # "pass" | "fail"
    inputs_digest: str
    details: dict = field(default_factory=dict)
    runtime_ms: int = 0

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return asdict(self)


class CertificateBuilder:
    """Accumulates named checks; the certificate passes iff all checks do.

    On the first failure the failing check name and a witness payload are
    recorded so the report names the violated condition.
    """

    def __init__(self, claim_id, inputs):
        self.claim_id = claim_id
        self.inputs_digest = digest_of(inputs)
        self.checks = {}
        self.details = {}
        self.first_failure = None
        self._t0 = time.monotonic()

    def check(self, name, ok, witness=None):
        ok = bool(ok)
        self.checks[name] = ok
        if not ok and self.first_failure is None:
            self.first_failure = {"check": name, "witness": witness}
        return ok

    def note(self, key, value):
        self.details[key] = value

    def build(self):
        status = "pass" if self.checks and all(self.checks.values()) else "fail"
        details = dict(self.details)
        details["checks"] = self.checks
        if self.first_failure is not None:
            details["first_failure"] = self.first_failure
        return Certificate(
            claim_id=self.claim_id,
            status=status,
            inputs_digest=self.inputs_digest,
            details=details,
            runtime_ms=int((time.monotonic() - self._t0) * 1000),
        )
