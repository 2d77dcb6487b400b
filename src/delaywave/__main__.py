"""Process entry of ``python -m delaywave`` and the ``delaywave`` command."""

import importlib.util
import sys

# with _hashlib None, hashlib and hmac use CPython's own hashes as on a build
# without OpenSSL: config_hash's digest is the same, and no process of the run
# (this one, the helper, each certifier, each sweep worker) maps libcrypto,
# about 3.3 MB. An in-process cli.main keeps whatever hashlib its caller has
if importlib.util.find_spec("_sha2" if sys.version_info >= (3, 12) else "_sha256"):
    sys.modules.setdefault("_hashlib", None)

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
