"""Golden-output tripwire: report bytes and exit codes of the CLI.

Every digest below is the SHA-256 of what ``main(argv)`` writes to
stdout.  The other CLI tests check that two runs of the same code agree;
these pin the bytes themselves, so a change to the engine that alters a
report, even by one character, fails here.  When a report format is
changed on purpose, recompute the digests with the same ``main`` call
and say so in the change log.
"""

import hashlib
from importlib import resources

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
    (("tables", "--table", "I", "--format", "text"), 0,
     "dbf387ee9f3e0f713bb6161d047d7a7ce76308322c176a57d2ad2c90ea72503d"),
    (("tables", "--table", "I", "--format", "md"), 0,
     "3fc583437ca8edb9352f88dd72cfb45aada6fc5c8afbe5c808c925c6ae8b5c55"),
    (("tables", "--table", "II", "--format", "text"), 0,
     "2dbb43d9881b2e6d8f557348f1a6f014af3b1b0fdb9d4e5b0edc3e5e95716a65"),
    (("tables", "--table", "II", "--format", "md"), 0,
     "b8f08f85a93790f170d6c3f0b69fe89013764180ff965a8e290aaeeec09e872a"),
    (("tables", "--table", "III-A", "--format", "text"), 0,
     "a9f77ac1b7b6bf34864db70d505bef67e43bcf79f25dbd569e835e5d9a63782f"),
    (("tables", "--table", "III-A", "--format", "md"), 0,
     "b944c15a148258995c611c6f3be82a27c3f2578cf12e59cc1de31278bf3eeff6"),
    (("tables", "--table", "III-B", "--format", "text"), 0,
     "2f07058d652247afe00c5e93b306ce72d14ad2f9d18b6b0d4233e9aac6d1b910"),
    (("tables", "--table", "III-B", "--format", "md"), 0,
     "c361fd2f46eb35e664bfc32bb1bc9954976c7c509a026f4d4c5b061206a534f2"),
    (("tables", "--table", "IV-A", "--format", "text"), 0,
     "45e7bed699b136e8fd8ad63f906b9c07e0acdbb0355dd1a555e65d5ca387fbc4"),
    (("tables", "--table", "IV-A", "--format", "md"), 0,
     "9983190e745d81e83f8ad4bf3179395fc920bfe7ef86ac5efa22e7da3afa9a8d"),
    (("tables", "--table", "IV-B", "--format", "text"), 0,
     "4b24b83d55f790c03e2b2fc39c845f57b7ccf7c30646d94e6b570c6ba34fb7fd"),
    (("tables", "--table", "IV-B", "--format", "md"), 0,
     "08c40af86595f5e7760cf88ca31c40f856c3a75a95becb60f0e5b6df2eb7bebf"),
    (("tables", "--table", "V-A", "--format", "text"), 0,
     "46e7660964a8295ac02227e1086d84f4176b2c52326f74d2f83be39e7ce914ac"),
    (("tables", "--table", "V-A", "--format", "md"), 0,
     "70896accd302a43b86f02b0d0ee40053cc353bac3ac16a37ebeb16dbe6d945b5"),
    (("tables", "--table", "V-B", "--format", "text"), 0,
     "be1795fd2bb3e01e3ff9cb08b9f55ff27fffb2ee2924e269b0116ae83ad5c661"),
    (("tables", "--table", "V-B", "--format", "md"), 0,
     "ac09c1060586eca56c60afc63add345b1c018ca4699386c1edbd1c49c23592b1"),
    (("tables", "--table", "VI-A", "--format", "text"), 0,
     "6d7647fc81e7dd917f91127df72c3788f8ab85c3fb4abd11255cd6f6121ac980"),
    (("tables", "--table", "VI-A", "--format", "md"), 0,
     "e6f7e85c16930cc323b7c261bf40a52c43fc10dc19242cd3af1c4f9b6f87ce6b"),
    (("tables", "--table", "VI-B", "--format", "text"), 0,
     "73eaed71c4e4c6ff977ce0c2aac7bab8431782d25d32e9fd70686cd0651088e4"),
    (("tables", "--table", "VI-B", "--format", "md"), 0,
     "8b00703746157fe8761eb2eff85850964ffc276cd38f5bf24594b16f48654d41"),
    (("paradox", "--outcome", "0,2,3,3", "--format", "text"), 0,
     "1b8a816e49551aaa2beb4183bbc30604580d0df1e0dae028bf2a867ca4017eaa"),
    (("sample", "--runs", "1000000", "--seed", "42", "--format", "json"), 0,
     "ce1b29ad7b91aa28aa86c8fcedfcb980358044ecf8e5516de563226797d9b360"),
    (("sample", "--runs", "56000", "--seed", "42", "--format", "text"), 0,
     "a7befaa2e5e803a81c83325e256b715950f6f6e39e36d520a2cd5fe6d7e67969"),
    (("sample", "--state", "psi4-qubit", "--runs", "7000", "--seed", "4",
      "--format", "json"), 0,
     "8fb4038ed434516c911b91d1f4b8df31b0364a0e5bff97cbdccca203c7ded7de"),
    (("sample", "--state", "psi4-embedded", "--runs", "7000", "--seed", "4",
      "--format", "json"), 0,
     "287df9e6bd88fcf87246d839ee4ba3345c622182fc9b7b4b739597ed0e0b93ec"),
    (("fixtures-diff", "--format", "text"), 0,
     "946b0f41a2eedcccf62b939af7b30c73123675c6843e46a3f7385feda73c7843"),
    (("verify-state", "--state", "psi1234", "--format", "text"), 0,
     "06e4f0b5185586f9bcf853dee4a96536a3c5c0f0e6550eba152b6f6b877e1a7d"),
    (("verify-state", "--state", "psi4-qubit", "--format", "text"), 0,
     "5b028c691b78c4edadf19b5d059c992ce43c3cf50b9b1db77f9a4f99dcb29960"),
    (("verify-state", "--state", "psi4-embedded", "--format", "text"), 0,
     "27134004f4bdcc808f82d610a8b57dd6643825f4a4ff4a548bc2d93e919ea7e4"),
)

#: fixtures-diff on the packaged tables with the basic constraint of
#: table I row 1 flipped from -i to i (exit 1), by output format.
TAMPERED = {
    "json": "c4a9811d59208121e108f58845be4bfe562ca2bf892ba0c56ab5cc3172da8b37",
    "text": "9400c0e90b43b066b42f42338f5eac8726ce8074b31076775d55d0ab644de119",
}


@pytest.mark.parametrize(
    "argv,code,digest", GOLDENS, ids=[" ".join(g[0]) for g in GOLDENS]
)
def test_report_bytes_and_exit_code_are_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", sorted(TAMPERED))
def test_tampered_fixture_diff_bytes_are_pinned(tmp_path, capsys, fmt):
    # Pins the failure reasons of a derivation mismatch byte for byte.
    fixtures = resources.files("davn") / "fixtures"
    for name in [p.name for p in fixtures.iterdir() if p.name.endswith(".txt")]:
        text = (fixtures / name).read_text()
        if name == "table_I.txt":
            text = text.replace("basic=1,3:-i", "basic=1,3:i", 1)
        (tmp_path / name).write_text(text)
    assert main(["fixtures-diff", "--dir", str(tmp_path), "--format", fmt]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TAMPERED[fmt]
