"""Exit non-zero if running vaxcred loads a second OpenSSL.

``hashlib`` and ``hmac`` map the system's libcrypto beside the OpenSSL
that ``cryptography`` carries, and ``secrets`` imports both. This script
imports every vaxcred module, runs a 20-user canonical scenario, seals
and unseals a key and makes one round trip to the signing service, then
checks that none of them is loaded. It must run in a fresh interpreter
(pytest and hypothesis import ``hashlib`` themselves):

    python tests/one_openssl.py

``tests/test_imports.py`` runs it on the source tree; CI runs it on the
installed package.
"""

import importlib
import pathlib
import random
import sys

import vaxcred
from vaxcred.coupons import issue_coupon_batch
from vaxcred.credentials import DoseInfo
from vaxcred.crypto import KeyHandle, generate_keypair
from vaxcred.registry import Registry
from vaxcred.scenario import canonical_script, run_scenario
from vaxcred.service import SigningClient, serve
from vaxcred.vaccination import BadgeIssuer, PharmacySession
from vaxcred.verification import verify_badge

SECOND_OPENSSL = ("_hashlib", "hashlib", "hmac", "secrets")


def main() -> int:
    for path in sorted(pathlib.Path(vaxcred.__file__).parent.glob("[!_]*.py")):
        importlib.import_module(f"vaxcred.{path.stem}")
    run_scenario(canonical_script(20), 11)
    handle, vk = generate_keypair()
    assert KeyHandle.unseal(handle.seal("one openssl"), "one openssl").verifying_key == vk
    with Registry() as registry:
        coupon = issue_coupon_batch(handle, 1, "02139", "transit", registry=registry)[0]
        server = serve(BadgeIssuer(handle, registry))
        client = SigningClient("127.0.0.1", server.port)
        try:
            session = PharmacySession(vk_issuer=vk, registry=registry, signer=client,
                                      rng=random.Random(11))
            dose = DoseInfo(product="VX-ALPHA", lot="L-1", date="2021-03-01",
                            dose_number=1, site_id="S-01")
            badge, _, _ = session.issue_credentials_paper(coupon, dose, [("name", "Ada")])
        finally:
            client.close()
            server.shutdown()
            server.server_close()
    assert verify_badge(vk, badge) is not None
    loaded = [name for name in SECOND_OPENSSL if name in sys.modules]
    if loaded:
        print(f"a second OpenSSL is loaded, through {', '.join(loaded)}", file=sys.stderr)
        return 1
    print("one OpenSSL: none of " + ", ".join(SECOND_OPENSSL) + " is loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
