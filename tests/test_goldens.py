"""Golden-output tripwire: report bytes and exit codes of the CLI.

Every digest below is the SHA-256 of what ``main(argv)`` writes to
stdout.  The other CLI tests check that two runs of the same code agree;
these pin the bytes themselves, so a change to the engine that alters a
report, even by one character, fails here.  When a report format is
changed on purpose, recompute the digests with the same ``main`` call
and say so in the change log.
"""

import hashlib

import pytest

from davn.cli import main

GOLDENS = (
    (("davn", "--format", "json"), 0,
     "2e805abbb0e0be73af869eaff89a5e405a2d4f2bc19384e638cae030b89b375a"),
    (("davn", "--format", "text"), 0,
     "2d0799ef2e4352957ee582b340c89648ca41ecbf8b5395565e075f336cf4e039"),
    (("davn", "--state", "psi4-embedded", "--format", "json"), 1,
     "f02dbfcc56a81c785ffd0819009d7e353e35d308664a5e5751e094ddec10b095"),
    (("paradox", "--outcome", "0,2,3,3", "--format", "json"), 0,
     "7f4fc8c8a2a38c820397af48b0adec6a5f2cab3bafb2de2cef810fd6e2a0a896"),
    (("tables", "--table", "I", "--format", "json"), 0,
     "19b96a329daa3ca4a950f7875b7a85e66e189e87edcf0957e04cc35ea2886245"),
    (("tables", "--table", "II", "--format", "json"), 0,
     "fdb7c267220ada1c4420b3e28410148efc0e2c84330463237cae83797c11d9f3"),
    (("tables", "--table", "III-A", "--format", "json"), 0,
     "e9d778e9fbff300d9a6234dc7bc0b359f71d1ff40a794a7ce1e40e951e28c358"),
    (("tables", "--table", "III-B", "--format", "json"), 0,
     "e579d4dae233cb7902342ddd49aa0dbc6233835be570a189b701eff2bff1c814"),
    (("tables", "--table", "IV-A", "--format", "json"), 0,
     "3d87b02f8bc3ec0d70f331dcc7c9804386c4f2a264aa5f5e6c916734380ada75"),
    (("tables", "--table", "IV-B", "--format", "json"), 0,
     "22978bc500e1c69d45edbdf52f9bce43dec6a1ac5481323bf54466e7bcbb97b8"),
    (("tables", "--table", "V-A", "--format", "json"), 0,
     "2eb8f1f66cd0f75c47055732b6b4918f793276031bd25bc9863b2631d82ef562"),
    (("tables", "--table", "V-B", "--format", "json"), 0,
     "37314905bb8739d4091cec46a373a91d341b41f41d5ac13924723c8e62c6e216"),
    (("tables", "--table", "VI-A", "--format", "json"), 0,
     "4bb402eef53ef96081944736789bfd1ea5b99f0bff9bcbaa355ac6965a8a8ca3"),
    (("tables", "--table", "VI-B", "--format", "json"), 0,
     "da841bd1012a2ece5b42cf39642e1a9c2430ea0c6358b3596c498469a876e692"),
    (("fixtures-diff", "--format", "json"), 0,
     "82037014bcfa0177cc3a97033d26733d238c1c2e102a5075a0654c48f96aa256"),
    (("verify-state", "--state", "psi1234", "--format", "json"), 0,
     "ebab6ea8747dfaa081c08f92cbb5155dce93f6e09bb45073645c910fef1920c3"),
    (("verify-state", "--state", "psi4-qubit", "--format", "json"), 0,
     "f5f05bcbdde88f4a3e0f9a7555dcb304cf6548b40c19cb70e5c4020130af6e11"),
    (("verify-state", "--state", "psi4-embedded", "--format", "json"), 0,
     "ebacc0ec2d0179727b373de71c0ca705338beb718b12f72527359c6cbdc6f3ad"),
)


@pytest.mark.parametrize(
    "argv,code,digest", GOLDENS, ids=[" ".join(g[0]) for g in GOLDENS]
)
def test_report_bytes_and_exit_code_are_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
