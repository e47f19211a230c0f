"""Golden report bytes: the sha256 of every command's stdout at q = 3, one CSV
projection, single-tuple and single-alpha-row reports at q = 5, and one alpha
row of each scan at q = 9 and of verify at q = 13.

The benchmark's golden set covers every alpha row of verify at q = 13, the
scans at q = 9 and four-lines at q = 5; this file covers the rest of the CLI
surface and one row of each of those branches.  A digest
changes only when a report's bytes change, so a refactor that keeps these
passing keeps every covered report identical.
"""

import hashlib

import pytest

from unital_lab import cli

GOLDEN = {
    "verify --p 3 --n 1":
        "4f662c5c5a39dd3325d4c801a7ce1bce2887ff2603758b7f62507d0b051be226",
    "verify --p 3 --n 1 --format csv":
        "32f63ad407080f56861d55a5dc8231a86ce773248135990b496ea7c90d4e4b45",
    "pedal --p 3 --n 1 --alpha 1+e --beta 0 --lambda 1":
        "f8e4f9c9b1050d095ea991d479c475a093fae7e006775cd2711cda684de7e668",
    "pedal --p 3 --n 1 --alpha 1+e --beta 0 --lambda w":
        "df8819e679d367f2dfe024fc2e96b2e46a655830b253673b23af44294ab8b4ea",
    "pedal --p 3 --n 1 --alpha 1+e --beta 0 --point 1,0,0":
        "59b0317d935628ef931519443b611a57a645ee2bb784f3ff30d5fb9e2be9f40c",
    "pedal --p 3 --n 1 --alpha 1+e --beta 0 --point 1,1,1":
        "0c7732057228c455c8fe98c3a422e85216a5425f8a45ae3da089a061706a2d07",
    "census --p 3 --n 1 --alpha 1+e --beta 0 --lambda 1":
        "e19e766af2cdefe3da0f0d59fcd83257a71c87fa96116333719af62e1613c7d1",
    "census --p 3 --n 1 --alpha 1+e --beta 0 --point 1,1,1":
        "84709f29fccb63e84c0fc5f015c995d4f1c1da624b94fec18e78f9931684c8c5",
    "orbit --p 3 --n 1 --alpha 1+e --beta 0 --lambda 1":
        "81fa94ba26d34b70ce97db08d01c671753e7f2a6878084cd0be05e4b7b7343dd",
    "scan --p 3 --n 1 --problem four-lines":
        "bf1fe8e2e56bd501f21ae70c94508c0ba6c0669ab41a3151259054d6e28a508e",
    "scan --p 3 --n 1 --problem conics":
        "e0161ff97a27ab94eb319c2785b006acfb550b4c2f375fb15d852c56668bc724",
    "scan --p 3 --n 1 --problem orbit-census":
        "8ecb45527f1d272481795445602503931b3f7140fbd3f549336d138f22205763",
    "scan --p 3 --n 1 --problem secant-partition":
        "f98980a0616ab718285ff9874c7d93af3d5a8547fed6131ed5c24e335d036a99",
    "scan --p 3 --n 1 --problem incidence-structure":
        "43f25d1ba3a9595337e7ff25134033b09551b5005659a36e8dc0b17899567868",
    "pedal --p 5 --n 1 --alpha 1 --beta e --lambda 1":
        "c9387205dce4c1705eef15c4ba5dbd43a0da1db23183aa5523f8064e98666ec6",
    "pedal --p 5 --n 1 --alpha 1 --beta e --lambda w":
        "e7f126ee2582089d2d1f94a66ebedd16d183973a2436386a16f507c554beec4a",
    "census --p 5 --n 1 --alpha 1 --beta e --lambda w":
        "b80dfa9b118b8780c0d9f66c544f66a1afd1baa412132a02ae0a9bfbf75fbc47",
    "orbit --p 5 --n 1 --alpha 1 --beta e --lambda w":
        "4d4016b4c1c3ac23285c55cb909a17476323630359c19ee30b3fd9e705f32d7a",
    "pedal --p 5 --n 1 --alpha 1 --beta e --point 1,1,1":
        "e5b33ae36f83fce150753c423918b1c30b07535decc6a281af0fe79f2a8926c8",
    "census --p 5 --n 1 --alpha 1 --beta e --point 1,1,1":
        "7eea667de556b7d6e0720a001c6c062d0a0e971b63aec7e0068cf032cb0f1057",
    "scan --p 5 --n 1 --alpha 1 --problem conics":
        "77e4b165ce8469f3985f4352b4a566c16bc91360351c5c293d8277e42c92b098",
    "scan --p 5 --n 1 --alpha 1 --problem orbit-census":
        "b1506298eb83509102a9d73d293c4b829cf004f8f0ffc0894bc2252903cb9499",
    "scan --p 5 --n 1 --alpha 1 --problem secant-partition":
        "0a1647379198f1a054bb78991bc877e06e0e82cc7bcba996dbe039f6ecf3bdaa",
    "scan --p 5 --n 1 --alpha 1 --problem incidence-structure":
        "3e0283468b76fd1fe25d47a4e749aa36fb0654cd99ac9a716049109f1e805b24",
    # every external point off the line at infinity (q <= 5); argv and digest
    # as in perfbench/golden.json.
    "scan --p 5 --n 1 --problem four-lines --alpha 1+e --format json --jobs 1":
        "af56cf43771ba21cf0a08967560553bf79ac2c145860d411cbe0769aae7446b2",
    # q > 5: canonical-plus-translates bases and sampled secants (q = 9), and
    # verify at q = 13; argv and digests as in perfbench/golden.json.
    "scan --p 3 --n 2 --problem four-lines --alpha 1+e --format json --jobs 1":
        "bec4ec0e63ca93bb0d2fd8123e9a1a9badea9ae92732df63315a6bb134790cb6",
    "scan --p 3 --n 2 --problem conics --alpha 1+e --format json --jobs 1":
        "bdc5b067ed52dfd1fee7b5a3df41b63ec6881c92d9e3d552b50d6f93453d6686",
    "scan --p 3 --n 2 --problem orbit-census --alpha 1+e --format json --jobs 1":
        "7fa15354f233facfe2d67a7a71a56c524408bcc11ec4c7bc8bd0a38d5f99ab27",
    "scan --p 3 --n 2 --problem secant-partition --alpha 1+e --format json --jobs 1":
        "b5643d320f4a74467cb21aeb55692100fa82494141fc218f32fedd57ffc83ebe",
    "scan --p 3 --n 2 --problem incidence-structure --alpha 1+e --format json --jobs 1":
        "94cbe2bd245b80873b6f3271ad6227fd4d1fb51cadf503441cdb080c5b776ea2",
    "verify --p 13 --n 1 --alpha 1+e --format json --jobs 1":
        "bfdce74e954e07cc98b84a4a32c3b91ac2341d3c9a94f3ad2a39e9731fb93e58",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_match_golden_digest(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
