import argparse
import hashlib
import io
import json

import pytest

from sphemb.cli import run
from sphemb.divisor_model import model_from_json


def _invoke(argv):
    out = io.StringIO()
    code = run(argv, stdout=out)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    return code, json.loads(text)


def test_class_group_monoid():
    code, doc = _invoke(["class-group", "--family", "monoid:m=3"])
    assert code == 0 and doc["status"] == "ok"
    assert doc["result"] == {"free_rank": 2, "invariant_factors": [], "generators": ["D_1", "D_2"]}


def test_gorenstein_circular():
    code, doc = _invoke(["gorenstein", "--family", "circular:m=2,n=2,r=1,s=1"])
    assert code == 0
    assert doc["result"]["gorenstein"] is True
    assert doc["result"]["witness_character"] == {"eps_1": -1, "delta_1": -1}

    code, doc = _invoke(["gorenstein", "--family", "monoid:m=3"])
    assert doc["result"] == {"gorenstein": False, "witness_character": None}


def test_usage_errors_exit_2():
    code, doc = _invoke(["class-group", "--family", "monoid:m=0"])
    assert code == 2 and doc["status"] == "error"
    code, doc = _invoke(["class-group", "--family", "unknown:m=1"])
    assert code == 2
    code, doc = _invoke(["class-group"])
    assert code == 2
    code, doc = _invoke(["model", "--family", "monoid:m=2"])
    assert code == 2  # missing --dump
    code, doc = _invoke(["divisor", "--family", "monoid:m=2", "--chi", "eps_1"])
    assert code == 2  # malformed sparse entry


def test_domain_errors_exit_3():
    code, doc = _invoke(["canonical", "--family", "complexes:2,3,2,1,1"])
    assert code == 3
    code, doc = _invoke(["class-of", "--family", "monoid:m=2", "--divisor", "X_9:1"])
    assert code == 3
    # character outside the Picard sublattice of the wonderful model
    code, doc = _invoke(
        ["wonderful-section", "--family", "circular:m=3,n=3,r=2,s=1", "--chi", "eps_2_1:1"]
    )
    assert code == 3


def test_unknown_label_messages_are_unquoted():
    # The message is the lookup's own text, not the repr of a KeyError.
    code, doc = _invoke(["divisor", "--family", "monoid:m=4", "--chi", "eps_9:1"])
    assert (code, doc["message"]) == (3, "unknown character label 'eps_9'")
    code, doc = _invoke(["wonderful-section", "--family", "monoid:m=4", "--chi", "zz:1"])
    assert (code, doc["message"]) == (3, "unknown basis label 'zz'")


def test_divisor_and_class_of():
    code, doc = _invoke(["divisor", "--family", "monoid:m=3", "--chi", "eps_1:1,eps_4:1"])
    assert code == 0
    assert doc["result"]["divisor"] == {"X_0": 1, "X_1": 1, "X_2": 1, "X_3": 1}

    code, doc = _invoke(
        ["class-of", "--family", "monoid:m=3", "--divisor", "X_0:1,X_1:1,X_2:1,X_3:1"]
    )
    assert doc["result"]["zero"] is True

    # braces in boundary labels survive the sparse parser
    code, doc = _invoke(
        ["class-of", "--family", "circular:m=2,n=2,r=1,s=1", "--divisor", "X_{0,1}:1,X_{1,0}:-1"]
    )
    assert code == 0
    assert doc["result"]["zero"] is True  # both boundaries are equivalent to -(D_r1 + D_r2)


def test_class_of_via_merged_alias():
    code, doc = _invoke(
        ["class-of", "--family", "circular:m=2,n=3,r=1,s=1", "--divisor", "D_s1:1"]
    )
    assert code == 0
    code2, doc2 = _invoke(
        ["class-of", "--family", "circular:m=2,n=3,r=1,s=1", "--divisor", "D_r1:1"]
    )
    assert doc["result"] == doc2["result"]


def test_wonderful_section_cli():
    code, doc = _invoke(
        ["wonderful-section", "--family", "circular:m=2,n=2,r=1,s=1", "--chi", "eps_2_1:1"]
    )
    assert code == 0 and doc["result"]["divisor"] == {"D_r1": 1}


def test_verify_cli():
    code, doc = _invoke(["verify", "--family", "monoid:m=2", "--trials", "4", "--seed", "1"])
    assert code == 0
    assert doc["result"]["passed"] is True and doc["result"]["stable"] is True
    assert doc["result"]["model_validation"]["ok"] is True
    records = doc["result"]["checks"]
    assert all(
        set(rec) == {"check", "inputs", "model_value", "oracle_value", "match", "trials", "stable"}
        for rec in records
    )

    code, doc = _invoke(["verify", "--family", "complexes:2,3,2,1,1"])
    assert code == 0 and doc["result"]["passed"] is True


def test_model_dump_round_trips():
    code, doc = _invoke(["model", "--family", "circular:m=2,n=2,r=1,s=1", "--dump"])
    assert code == 0
    model = model_from_json(doc["result"])
    from sphemb.families import build_family

    assert model == build_family("circular:m=2,n=2,r=1,s=1").model


def test_byte_identical_output():
    out1, out2 = io.StringIO(), io.StringIO()
    run(["verify", "--family", "monoid:m=2", "--seed", "7"], stdout=out1)
    run(["verify", "--family", "monoid:m=2", "--seed", "7"], stdout=out2)
    assert out1.getvalue() == out2.getvalue()

    out3 = io.StringIO()
    run(["class-group", "--family", "determinantal:3,3,2"], stdout=out3)
    out4 = io.StringIO()
    run(["class-group", "--family", "determinantal:3,3,2"], stdout=out4)
    assert out3.getvalue() == out4.getvalue()
    assert json.loads(out3.getvalue())["result"]["free_rank"] == 1


def test_trials_below_one_exit_2():
    for trials in ("0", "-3"):
        for command in ("verify", "class-group"):
            code, doc = _invoke([command, "--family", "monoid:m=3", "--trials", trials])
            assert code == 2 and doc["status"] == "error"
            assert doc["inputs"]["trials"] == int(trials)
            assert "--trials must be at least 1" in doc["message"]


def test_seed_below_zero_exits_2():
    # Random(-s) draws what Random(s) draws, so a negative seed would only
    # repeat another seed's report; it is refused, as --trials below 1 is.
    for seed in ("-1", "-931794"):
        for command in ("verify", "class-group"):
            code, doc = _invoke([command, "--family", "monoid:m=3", "--trials", "8", "--seed", seed])
            assert code == 2 and doc["status"] == "error"
            assert doc["inputs"]["seed"] == int(seed)
            assert doc["message"] == f"--seed must be at least 0, got {seed}"
    code, doc = _invoke(["verify", "--family", "monoid:m=2", "--seed", "-0"])
    assert code == 0 and doc["inputs"]["seed"] == 0


def test_integers_are_ascii_digit_strings():
    # Family parameters, --trials, --seed and sparse coefficients are read as
    # [+-]?[0-9]+ after stripping: int() would read 1_0 as 10 and an
    # Arabic-Indic digit as 3.
    for argv, message in (
        (["class-group", "--family", "monoid:m=1_0"], "parameter value '1_0' is not an integer"),
        (["class-group", "--family", "monoid:m=\u0663"], "parameter value '\u0663' is not an integer"),
        (["class-group", "--family", "monoid:m=3", "--trials", "0_8"], "argument --trials: invalid int value: '0_8'"),
        (["class-group", "--family", "monoid:m=3", "--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
        (["divisor", "--family", "monoid:m=3", "--chi", "eps_1:1_0"], "coefficient '1_0' is not an integer"),
    ):
        code, doc = _invoke(argv)
        assert (code, doc["status"], doc["message"]) == (2, "error", message), argv
    code, doc = _invoke(["divisor", "--family", " monoid: m = +3 ", "--chi", "eps_1: -2 ", "--seed", " 5", "--trials", "+2"])
    assert code == 0 and doc["result"]["character"] == {"eps_1": -2}
    assert (doc["inputs"]["seed"], doc["inputs"]["trials"]) == (5, 2)


# sha256 of the output line of each command.  Seeded output must stay
# byte-identical through refactors of the oracle, the realizations and the
# divisor layer: the table covers every family's `verify` (circular members
# with and without boundaries, determinantal with m > n, complexes with l > 1
# and with l = 0 or m = 0),
# a determinantal `class-group`, and `gorenstein` on members whose output
# carries the `is_principal` verdict and witness.
PINNED_OUTPUT_DIGESTS = {
    ("verify", "monoid:m=2", "0"): "9c4b9de53bf33c5dd55f4761451bbae2f2f0562dd5c15022abfeb3fe75bdb593",
    ("verify", "monoid:m=2", "5"): "f51b3464db626e152926cb56399bbfaf006845a4a73cddbb576bf481d8c81ca5",
    ("verify", "monoid:m=3", "0"): "3b00f0ca2490b79d33e646f698eff8f9243f1df683b94c84a3e267be9d8ae9fc",
    ("verify", "monoid:m=3", "5"): "6e1fe809c492a0290b5c1b4a1785741092de45fda175a6c0a136ecb3a079888d",
    ("verify", "determinantal:m=3,n=3,r=2", "0"): "18a24bb23cc71cc4308a4f2538f6de7e96afed13a552fe68f0bb024919e066af",
    ("verify", "determinantal:m=3,n=3,r=2", "5"): "0d5f22da86392133426e3b6ac759dd9b28bf5cec9600f03404ac70277b6d6adc",
    ("verify", "circular:m=2,n=3,r=1,s=1", "0"): "c9d0b3d9ce550817956c0d307ed1d021446eda0c7219a667a86c29cac278deed",
    ("verify", "circular:m=2,n=3,r=1,s=1", "5"): "4273d5db0671166eb66e5a18b98998eba7865971154804438b432da42c23d8e0",
    ("verify", "complexes:l=1,m=2,n=2,r=1,s=1", "0"): "7f5d33598fd0e890b7df58e12a87e41df19b4352ffc961f76dc15aa7d3e4d50c",
    ("verify", "complexes:l=1,m=2,n=2,r=1,s=1", "5"): "4f4957ab5ccb2966e779ba08131ac6c85ad3f08c6bba2df6bd16b5f2d5798182",
    ("class-group", "determinantal:m=3,n=3,r=2", "0"): "2774472921b6d3a02f21255cdaaea168dc2858956431636d5a2fe08145501f32",
    ("verify", "circular:m=2,n=2,r=1,s=1", "0"): "8178ee0787b0327de242bfea33fd2849590e5d664ae6dcafb38c663de2c08bff",
    ("verify", "circular:m=3,n=3,r=1,s=2", "0"): "07269af9ab8b5c1690222653ef2242aaf156787c400289c436afd1272cfdddeb",
    ("verify", "determinantal:m=3,n=2,r=1", "0"): "a2273af20b560bac3971d463885518f133c86075343ecc65210c76dbc31695e4",
    ("verify", "complexes:l=2,m=3,n=2,r=1,s=1", "0"): "1289aa2171b53e294e796f5f92146ff05af5b0860c5074598b317cbdbc6bd7d1",
    ("gorenstein", "monoid:m=3", "0"): "61c7fbd7c694f685316603cd75724bceb2e0e2e9ab13487d8786ff7f32bc3c83",
    ("gorenstein", "circular:m=2,n=2,r=1,s=1", "0"): "ee4d2cfd3102b98c41c75eab8611a5d5fdaf54ae4908e14f220b008aaab29b0e",
    ("gorenstein", "determinantal:m=2,n=4,r=1", "0"): "4859de08e5663434d9a9d4301f5e80aa2b4eabc41adf94e0cc6a9ead182b4b99",
    ("verify", "monoid:m=4", "0"): "83fff336370e48ca1521542d0b5956626e1f53ea358299b3798d568e3581b4b1",
    ("verify", "complexes:l=0,m=1,n=1,r=0,s=1", "0"): "470df7769b3fa5aa7c4104b4b2eeb863aaa73381f6519703d1bd7bea2ef2ba20",
    ("verify", "complexes:l=1,m=0,n=1,r=0,s=0", "0"): "d2cc9e0ee73ac8bb08bfe9740a59a20158bd2db6a1b7d0e28c6c5a0d2ccf3d10",
    # Recorded while every boundary order was still read on built translates.
    ("verify", "monoid:m=8", "0"): "548dc8afba06e9ded7b4e0715b6b0231e48ef382e59f7a9d26b8cebecf645460",
    ("verify", "monoid:m=10", "0"): "43e0d16aa1b5a3ccda36a8c8d1c7c3a4ab68360ccb5ac03d7f543161f54c242d",
}


def test_pinned_output_digests():
    for (command, family, seed), digest in PINNED_OUTPUT_DIGESTS.items():
        out = io.StringIO()
        assert run([command, "--family", family, "--seed", seed], stdout=out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, (command, family, seed)


# Exit code and sha256 of the output of commands outside the (command,
# family, seed) form.  The `model --dump` digests were recorded before the
# determinantal model became the circular model at s = 0 and must not move.
# The first section digest pins the model's own labels: it used to read
# {"D_s1": -1}, a label the m > n determinantal model does not have.  The
# monoid m=20, circular canonical and determinantal section outputs were
# recorded before the realizations and determinantal finalization became
# lazy; the section there exits 3 (eps_1_1 pairs unequally against D_1).
PINNED_ARGV_DIGESTS = {
    ("model", "--family", "determinantal:m=3,n=2,r=1", "--dump"):
        (0, "e29f74e44663bc543d2a5efb395fc57e7f374515ed6665082df5f9be2fe1bef8"),
    ("model", "--family", "determinantal:m=2,n=4,r=1", "--dump"):
        (0, "adb330ce592ed2951bdf1b232c39777dc8c0d88340a57181d8ae0be8cffec82d"),
    ("wonderful-section", "--family", "determinantal:m=3,n=2,r=1", "--chi", "eps_1_1:1"):
        (0, "d2711aa541aab40c21bf81a0b0d889d02be30e97257a57fbadf023aa067b2eb5"),
    ("class-group", "--family", "monoid:m=20"):
        (0, "fba2426261cb93c5c31395fc07dba1388c7fe1cc6098f767b901100e0eca8573"),
    ("gorenstein", "--family", "monoid:m=20"):
        (0, "17f3ae35d2e2ee8b2803d1594cd4012555f0684397659ab3ec1e257f3ee1d0a9"),
    ("canonical", "--family", "circular:m=5,n=7,r=2,s=2"):
        (0, "4672c0f4290b97576b551b3484b4640e464676d5ffbab0c3c88a3e7f8496355c"),
    ("wonderful-section", "--family", "determinantal:m=5,n=5,r=3", "--chi", "eps_1_1:1"):
        (3, "4254b25e299e3c6a3a345c4120349599cacab3cf08b6d2ec72265043d055ae7e"),
    # Exit-0 oracle runs at the default seed: a drift of the seeded group
    # draws, or of any translate, minor or order, changes these digests.
    ("verify", "--family", "monoid:m=4"):
        (0, "83fff336370e48ca1521542d0b5956626e1f53ea358299b3798d568e3581b4b1"),
    ("verify", "--family", "circular:m=2,n=3,r=1,s=1"):
        (0, "c9d0b3d9ce550817956c0d307ed1d021446eda0c7219a667a86c29cac278deed"),
    ("verify", "--family", "determinantal:m=3,n=3,r=2"):
        (0, "18a24bb23cc71cc4308a4f2538f6de7e96afed13a552fe68f0bb024919e066af"),
    ("verify", "--family", "complexes:l=1,m=2,n=2,r=1,s=1"):
        (0, "7f5d33598fd0e890b7df58e12a87e41df19b4352ffc961f76dc15aa7d3e4d50c"),
    # A left-only factor larger than 1x1, and the m > n swap; both run the
    # stabilizer check and its negative control.
    ("verify", "--family", "complexes:l=2,m=3,n=2,r=1,s=1"):
        (0, "1289aa2171b53e294e796f5f92146ff05af5b0860c5074598b317cbdbc6bd7d1"),
    ("verify", "--family", "circular:m=3,n=2,r=1,s=1"):
        (0, "4f847944a98d8a7cd0d147e9ec7b0a4545c5bcb8b0725dea843bb578c80edf05"),
    # Both circular curves carry a boundary label; the smallest monoid; a
    # determinantal member with m > n.
    ("verify", "--family", "circular:m=3,n=3,r=1,s=2"):
        (0, "07269af9ab8b5c1690222653ef2242aaf156787c400289c436afd1272cfdddeb"),
    ("verify", "--family", "monoid:m=1"):
        (0, "7909659b4b38141bc456641ddda7f902c05b1ee0c200e3b979e19c1c06e50b68"),
    ("verify", "--family", "determinantal:m=4,n=3,r=2"):
        (0, "42a63b37d93be365a7d36e717501b353b95247558a6eb3a754c2bf1774bbc220"),
    # Dumps with character aliases (eps_7..eps_12 on the monoid) and label
    # aliases (circular), recorded before the divisor records lost their
    # kind tags and the wonderful colours became one list.
    ("model", "--family", "monoid:m=6", "--dump"):
        (0, "9c23992e0f0dc230f5e19f8239b62aee6eb4e8880a0f05c179da134242fa4a4a"),
    ("model", "--family", "circular:m=3,n=3,r=1,s=2", "--dump"):
        (0, "f89e62aa20365e700ad0f31e7736917f6de8b191059870620f655c4aabebd21b"),
    # One paired colour and one unpaired: {"D_1": 1, "D_r1": 1}; then the
    # same member with a character pairing unequally at D_1 (exit 3).
    ("wonderful-section", "--family", "circular:m=3,n=4,r=2,s=1", "--chi", "eps_1_1:-1,eps_1_2:1,eps_3_1:1"):
        (0, "eb058f34ca6dd2867939b86466624e98d15c019683faafe0a41aa71e9cfa811d"),
    ("wonderful-section", "--family", "circular:m=3,n=4,r=2,s=1", "--chi", "eps_2_1:1,eps_3_1:1"):
        (3, "29e381e594a2bc005b705b4e0d7b592b1b1b6030a6a10f61ac0c6065b8b93e15"),
    # A complexes member whose orbit dimension is 11.
    ("verify", "--family", "complexes:l=3,m=3,n=3,r=1,s=2"):
        (0, "079deadaf36e1ded25c1eee337a424b5b06c4889eb61dbdc53533dd85827d34c"),
    # Integer divisor queries on large models, recorded before the pairings
    # and the SNF transforms ran on integers: a principal divisor, a class,
    # a Gorenstein witness ({"eps_1":-4,"eps_2":-2,"delta_1":-2,"delta_2":-4})
    # and a non-Gorenstein verdict.
    ("divisor", "--family", "monoid:m=36", "--chi", "eps_1:2,eps_7:-1,eps_20:3,eps_37:1"):
        (0, "f2a5c8a610d1422516594642b61e26f9a80f0acd55b1ae589f2eba8c74411cb9"),
    ("class-of", "--family", "monoid:m=36", "--divisor", "D_5:2,X_3:-1,X_30:1"):
        (0, "e90f40a88726396ac4c7d525dec6eb52f248e6f3a51e343cb3c5f1a4f1c0e077"),
    ("gorenstein", "--family", "circular:m=5,n=5,r=2,s=2"):
        (0, "5fc89dec03c32ded29a76a41e804e5df5182f486eb3f6ec26c54dfc02e3ff7e6"),
    ("gorenstein", "--family", "monoid:m=30"):
        (0, "cb1089fcdf53fb86527423aa098a10168526bc5b857a8ad2dae6386a50766d8c"),
    # Recorded before translates kept their integer form and the minors
    # shared one expansion: 5 x 5 leading and trailing minors, group draws
    # at a (trials, seed) other than the default, and a determinantal member
    # whose matrix is wider than it is tall.
    ("verify", "--family", "monoid:m=5"):
        (0, "c8d1b13359b7770cd5860be008019f76a958fd7a5caa3e530b7ee854ccb3bc9d"),
    ("verify", "--family", "monoid:m=3", "--trials", "3", "--seed", "11"):
        (0, "4b769ffb2e5328262eb5011f3c3926784fd0a64a26b428157926a4b9d281f116"),
    ("verify", "--family", "determinantal:m=2,n=4,r=1"):
        (0, "45eeabb22fc9681630219aa7c4f5697fe5ab2925eb82bb058a632393a048cb33"),
    # Recorded before the Borel check took its orbit points from the boundary
    # draws: with one trial both come from one draw g, as g . x0 and g^-1 . x0.
    ("verify", "--family", "determinantal:m=4,n=5,r=3", "--trials", "1", "--seed", "7"):
        (0, "64ae0d637b621436104c898ae3d66582267502d846a0c33d30b6f5de10f0313a"),
    ("verify", "--family", "determinantal:m=4,n=5,r=3", "--trials", "1", "--seed", "931794"):
        (0, "60632c2358d810ed0ec460f48cf408b277437b7e28864206b61797a18aa8cc6f"),
    ("verify", "--family", "monoid:m=5", "--trials", "1", "--seed", "7"):
        (0, "2dac884b815e21b8e283f21f41fc0f3f013304970fcde6d1a357c24c4e60c22f"),
    ("verify", "--family", "monoid:m=5", "--trials", "1", "--seed", "931794"):
        (0, "2ded6536a6f4188fdf0dd50b8fa6b9db53107505f19441ebcdbd59b08991879c"),
    # Determinantal divisor queries, m > n among them, recorded while the
    # model was still confirmed by the oracle before any query ran.
    ("canonical", "--family", "determinantal:m=4,n=3,r=2"):
        (0, "e10ff78b55aaed4beb4b3490f41a08e782ccb6327f5819cb95f79a60993bcc2f"),
    ("canonical", "--family", "determinantal:3,4,2"):
        (0, "43ef6ad7fceef8cdc84792d461216aa416097f1b0bde6f7153a47617cd85fd86"),
    ("class-of", "--family", "determinantal:m=4,n=3,r=2", "--divisor", "D_r1:2,D_1:-1"):
        (0, "d5cd4d55a455a51aaa2e96fc7ef92ca23205fca796360a75e9dfa558c0d66b21"),
    ("divisor", "--family", "determinantal:m=4,n=3,r=2", "--chi", "eps_1:2,eps_2:-1"):
        (0, "04a22bce545c2bebdc1b782acb8cb249b9d5661a7db1ea3709511e7371127e28"),
    ("class-group", "--family", "determinantal:m=5,n=3,r=2"):
        (0, "f0b462f52fb0bf188e8df99884edebb7e5cd0a9d820abfec4278c665a6b69aad"),
    ("gorenstein", "--family", "determinantal:m=4,n=3,r=2"):
        (0, "f40671f76cb64d66e049c4438e8cf01ee9059821f5eef9feff53809a44f4bc33"),
}


def test_pinned_argv_digests():
    for argv, (code, digest) in PINNED_ARGV_DIGESTS.items():
        out = io.StringIO()
        assert run(list(argv), stdout=out) == code, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


def test_determinantal_wonderful_section_uses_model_labels():
    code, doc = _invoke(
        ["wonderful-section", "--family", "determinantal:m=3,n=2,r=1", "--chi", "eps_1_1:1,eps_1_2:-1"]
    )
    assert code == 0 and doc["result"]["divisor"] == {"D_r1": -1, "D_r2": -1}


def test_pinned_unstable_verify_output():
    # One of the eight translates of a monoid m=3 curve is not generic at
    # this seed, so an order comes out unstable and the CLI exits 4 with the
    # whole report as its result object.  A non-generic draw is where exact
    # zeros reach the translate and minor kernels.
    out = io.StringIO()
    assert run(["verify", "--family", "monoid:m=3", "--trials", "8", "--seed", "931794"], stdout=out) == 4
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "a2691afa377316a3e41606e71b9e894b4cd246664dadac9f6fbd16b7c7885875"
    doc = json.loads(out.getvalue())
    assert doc["status"] == "error" and doc["result"]["stable"] is False
    assert doc["message"] == "oracle report is unstable: trials disagree on 1 of 27 checks"


def test_stable_failed_verify_exits_5(monkeypatch):
    # A monoid m=3 model with one boundary valuation doubled: the oracle's
    # stable orders disagree with it, so verify exits 5 with the report.
    import dataclasses

    from sphemb import cli
    from sphemb.families import build_family

    bundle = build_family("monoid:m=3")
    model = bundle.model
    first, *rest = model.boundaries
    doubled = model.weight_lattice.covector([2 * c for c in first.valuation.coords])
    slipped = dataclasses.replace(model, boundaries=(dataclasses.replace(first, valuation=doubled), *rest))
    bundle.__dict__["model"] = slipped
    monkeypatch.setattr(cli, "build_family", lambda spec: bundle)
    code, doc = _invoke(["verify", "--family", "monoid:m=3"])
    assert code == 5 and doc["status"] == "error"
    assert doc["result"]["stable"] is True and doc["result"]["passed"] is False
    failed = [rec for rec in doc["result"]["checks"] if not rec["match"]]
    assert failed and all(rec["inputs"].get("boundary") == first.id for rec in failed)
    assert doc["message"] == f"verification failed: {len(failed)} of {len(doc['result']['checks'])} checks do not match"


def test_shared_parser_matches_fresh_parsers():
    from sphemb.cli import _build_parser

    calls = [
        ["class-of", "--family", "monoid:m=2", "--divisor", "X_0"],
        ["class-of", "--family", "monoid:m=2", "--divisor", "X_0:1"],
        ["class-of", "--family", "monoid:m=2", "--divisor", "X_0"],
        ["verify", "--family", "monoid:m=2", "--bogus"],
        ["verify", "--family", "monoid:m=2", "--trials", "2"],
        ["verify", "--family", "monoid:m=2", "--bogus"],
    ]

    def outputs(fresh):
        docs = []
        for argv in calls:
            if fresh:
                _build_parser.cache_clear()
            out = io.StringIO()
            docs.append((run(argv, stdout=out), out.getvalue()))
        return docs

    shared = outputs(fresh=False)
    assert [code for code, _ in shared] == [2, 0, 2, 2, 0, 2]
    assert shared[0] == shared[2] and shared[3] == shared[5]
    assert shared == outputs(fresh=True)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_divisor_commands_build_no_realization(monkeypatch):
    from sphemb.realization import MatrixRealization

    built = _count_calls(monkeypatch, MatrixRealization, "__post_init__")
    for family, divisor in (("monoid:m=5", "D_1:1,X_0:2"), ("circular:m=2,n=3,r=1,s=1", "D_r1:1,D_s2:-1")):
        for command in (
            ["class-group"],
            ["canonical"],
            ["gorenstein"],
            ["class-of", "--divisor", divisor],
            ["divisor", "--chi", "eps_1:2"],
            ["model", "--dump"],
            ["wonderful-section", "--chi", "eps_1_1:1,eps_1_2:-1"],
        ):
            code, _ = _invoke([command[0], "--family", family, *command[1:]])
            assert code == 0 and not built, (family, command)
        code, doc = _invoke(["verify", "--family", family, "--trials", "2"])
        assert code == 0 and doc["result"]["passed"]
        assert len(built) == 1, family
        built.clear()


def test_bundle_builds_its_realization_once(monkeypatch):
    from sphemb.families import build_family
    from sphemb.realization import MatrixRealization

    built = _count_calls(monkeypatch, MatrixRealization, "__post_init__")
    for spec in ("monoid:m=3", "circular:m=2,n=2,r=1,s=1", "determinantal:m=3,n=3,r=2", "complexes:1,2,2,1,1"):
        bundle = build_family(spec)
        assert not built
        assert bundle.realization is bundle.realization
        assert bundle.model is bundle.model
        assert len(built) == 1, spec
        built.clear()


def _count_draws(monkeypatch):
    """The realizations built from here on, and the group and Borel draws they make."""
    from sphemb.realization import MatrixRealization

    built, counts = [], {"group_draw": 0, "borel_sampler": 0}
    original = MatrixRealization.__post_init__

    def post_init(real):
        original(real)
        built.append(real)
        for name in counts:

            def counted(rng, draw=getattr(real, name), name=name):
                counts[name] += 1
                return draw(rng)

            setattr(real, name, counted)

    monkeypatch.setattr(MatrixRealization, "__post_init__", post_init)
    return built, counts


def test_no_state_outlives_a_verify_call(monkeypatch):
    # Two calls in one process do the work of two sphemb processes: each
    # builds its realization and draws its own group elements.  The Borel
    # check draws no Borel element: the trailing minors are refuted by a root
    # element at the first group draw's translate.
    built, counts = _count_draws(monkeypatch)
    first, second = (_invoke(["verify", "--family", "monoid:m=3"]) for _ in range(2))
    assert first == second and first[0] == 0 and first[1]["result"]["passed"]
    assert len(built) == 2 and built[0] is not built[1]
    assert counts == {"group_draw": 2 * 8, "borel_sampler": 0}


@pytest.mark.parametrize("family", ["determinantal:m=3,n=3,r=2", "determinantal:m=4,n=5,r=3", "determinantal:m=2,n=4,r=1"])
def test_determinantal_verify_draws_no_group_or_borel_element(monkeypatch, family):
    # Every leading minor is certified by the Borel's shape, and the
    # determinantal model has no boundary to read orders along, so verify
    # draws no group or Borel element.
    _, counts = _count_draws(monkeypatch)
    for trials in ("1", "8"):
        code, doc = _invoke(["verify", "--family", family, "--trials", trials])
        assert code == 0 and doc["result"]["passed"]
        assert [c["check"] for c in doc["result"]["checks"]].count("semi_invariant_weight") == int(family[-1])
    assert counts == {"group_draw": 0, "borel_sampler": 0}


def test_determinantal_queries_build_no_realization(monkeypatch):
    # The determinantal model is built in closed form: with the realization's
    # construction and the orbit-dimension oracle made to raise, every query
    # but verify still exits with its pinned bytes, m > n included.
    from sphemb import oracle
    from sphemb.realization import MatrixRealization

    def refuse(*args, **kwargs):
        raise AssertionError("a realization was built or an orbit measured")

    monkeypatch.setattr(MatrixRealization, "__post_init__", refuse)
    monkeypatch.setattr(oracle, "orbit_dimension", refuse)
    pinned = {(c, "--family", f, "--seed", seed): (0, d) for (c, f, seed), d in PINNED_OUTPUT_DIGESTS.items()}
    pinned.update(PINNED_ARGV_DIGESTS)
    queries = {argv: want for argv, want in pinned.items() if "determinantal" in argv[2] and argv[0] != "verify"}
    commands = {argv[0] for argv in queries}
    assert commands == {"class-group", "canonical", "gorenstein", "class-of", "divisor", "model", "wonderful-section"}
    assert any(argv[2].startswith(("determinantal:m=3,n=2", "determinantal:m=4,n=3")) for argv in queries)
    for argv, (code, digest) in queries.items():
        out = io.StringIO()
        assert run(list(argv), stdout=out) == code, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


def test_determinantal_verify_takes_each_orbit_dimension_and_limit_once(monkeypatch):
    # The report measures the base orbit once and takes the curve's limit
    # once; nothing measures the limit's orbit.
    from sphemb import oracle

    dims = _count_calls(monkeypatch, oracle, "orbit_dimension")
    limits = _count_calls(monkeypatch, oracle, "limit_signature")
    code, doc = _invoke(["verify", "--family", "determinantal:m=3,n=3,r=2"])
    assert code == 0 and doc["result"]["passed"]
    assert len(dims) == 1 and len(limits) == 1
    assert len(dims[0]) == 1  # the base point


def test_parameter_errors_stay_eager():
    from sphemb.families import FamilyParameterError, build_family

    for spec in ("monoid:m=0", "circular:m=2,n=2,r=0,s=0", "determinantal:m=3,n=3,r=3", "complexes:1,2,2,2,1"):
        with pytest.raises(FamilyParameterError):
            build_family(spec)


def test_bundle_builds_wonderful_data_on_first_read(monkeypatch):
    from sphemb import families
    from sphemb.divisor_model import class_group_data

    built = _count_calls(monkeypatch, families, "_wonderful")
    bundle = families.build_family("monoid:m=20")
    class_group_data(bundle.model)
    for family in ("monoid:m=20", "circular:m=2,n=3,r=1,s=1", "determinantal:m=3,n=3,r=2"):
        code, _ = _invoke(["class-group", "--family", family])
        assert code == 0
    assert "wonderful" not in bundle.__dict__ and not built
    assert bundle.wonderful is bundle.wonderful and len(built) == 1
    assert families.build_family("complexes:1,2,2,1,1").wonderful is None and len(built) == 1


def test_removed_no_op_flags_are_usage_errors():
    # --json and --oracle were always on; passing either is now an
    # unrecognized argument.
    for argv in (
        ["class-group", "--family", "monoid:m=2", "--json"],
        ["model", "--family", "monoid:m=2", "--dump", "--json"],
        ["verify", "--family", "monoid:m=2", "--json"],
        ["verify", "--family", "monoid:m=2", "--oracle"],
    ):
        code, doc = _invoke(argv)
        assert code == 2 and doc["status"] == "error", argv
        assert "unrecognized arguments" in doc["message"], argv


def test_main_exits_with_the_run_code(monkeypatch, capsys):
    from sphemb.cli import main

    for argv, code in ((["class-group", "--family", "monoid:m=3"], 0), (["verify", "--trials", "0"], 2)):
        monkeypatch.setattr("sys.argv", ["sphemb", *argv])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == ("ok" if code == 0 else "error")


# Per subcommand, options that make a valid call; the first pair is --family.
_VALID_OPTIONS = {
    "class-group": ["--family", "monoid:m=3"],
    "canonical": ["--family", "circular:m=2,n=2,r=1,s=1"],
    "divisor": ["--family", "monoid:m=3", "--chi", "eps_1:1,eps_2:-1"],
    "gorenstein": ["--family", "circular:m=2,n=2,r=1,s=1"],
    "class-of": ["--family", "monoid:m=2", "--divisor", "X_0:1"],
    "verify": ["--family", "monoid:m=2", "--trials", "1"],
    "wonderful-section": ["--family", "circular:m=2,n=2,r=1,s=1", "--chi", "eps_2_1:1"],
    "model": ["--family", "monoid:m=2", "--dump"],
}


def _parse_cases():
    for command, valid in _VALID_OPTIONS.items():
        family, rest = valid[1], valid[2:]
        yield [command, *valid]
        yield [command, *rest]  # --family missing
        yield [command, *valid, "--bogus"]
        yield [command, *valid, "extra"]
        yield [command, "--fam", family, *rest]
        yield [command, f"--family={family}", *rest]
        yield [command, *valid, "--seed", "x"]
        yield [command, *valid, "--seed", "1", "--seed", "2"]
        yield [command, "--family", "monoid:m=99999", *valid]
        yield [command, *valid, "--", "extra"]
        yield [command, "--", *valid]
        yield [command, "--help"]
        yield [command, "--h"]
    yield []
    yield ["nosuch", "--family", "monoid:m=3"]
    yield ["Class-group", "--family", "monoid:m=3"]
    yield ["class", "--family", "monoid:m=3"]
    yield ["--family", "monoid:m=3", "class-group"]
    yield ["--seed", "1", "class-group", "--family", "monoid:m=3"]
    yield ["-h"]
    yield ["--help", "class-group"]


def _outcomes(capsys):
    """(argv, exit code or SystemExit code, document written to run's stdout, help text on sys.stdout) per case."""
    outcomes = []
    for argv in _parse_cases():
        out = io.StringIO()
        try:
            code = run(argv, stdout=out)
        except SystemExit as e:
            code = ("exit", e.code)
        outcomes.append((argv, code, out.getvalue(), capsys.readouterr().out))
    return outcomes


def test_known_commands_parse_like_the_full_parser(monkeypatch, capsys):
    # The reference sends every argv through the top-level parser, by giving
    # run a subcommands action with no known command.
    from sphemb import cli

    fast = _outcomes(capsys)
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, argparse.Namespace(choices={})))
    reference = _outcomes(capsys)
    assert len(fast) == len(reference) == 13 * len(_VALID_OPTIONS) + 8
    for got, want in zip(fast, reference):
        assert got == want, got[0]
    codes = {argv[0] if argv else None: set() for argv, *_ in fast}
    for argv, code, *_ in fast:
        codes[argv[0] if argv else None].add(code)
    # Every subcommand sees success, usage errors and its help.
    for command in _VALID_OPTIONS:
        assert {0, 2, ("exit", 0)} <= codes[command], command
    assert all(doc == "" for _, code, doc, _ in fast if code == ("exit", 0))
    assert all(help_text.startswith("usage: sphemb") for _, code, _, help_text in fast if code == ("exit", 0))
