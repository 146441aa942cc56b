"""Byte-identity corpus for the CLI.

Each case is one command line and the SHA-256 of its exit status, stdout
and stderr.  `main` runs in-process with the structure cache cleared and a
fixed terminal width, in a directory that holds the presentation files
below, so a report that names its source reads the same on every run.  Any change to a report, a message or an exit status
fails here; record new digests only for a deliberate change of output.
"""

import hashlib
import json
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from garside import bundled
from garside.cli import main

FILES = {
    "braid3.gar": "gens: a b\nrel: a b a = b a b\ndelta: a b a\n",
    "unbalanced.gar": "gens: a b c\nrel: a a = a b\ndelta: a a\n",
    "one_sided.gar": "gens: s t\ndelta: s t\n",
    "stray.gar": "gens: a b c\nrel: a b = b a\ndelta: a b\n",
    "no_gcd.gar": "gens: a b\nrel: a b = b a\nrel: a a = b b\ndelta: b a b a\n",
    "residual.gar": "gens: a b\nrel: a b = b a\nrel: a b = b b\ndelta: a b\n",
    "inhomogeneous.gar": "gens: a b\nrel: a b = a\ndelta: a b\n",
    "unknown_letter.gar": "gens: a b\nrel: a c = c a\ndelta: a b\n",
    "no_delta.gar": "gens: a b\nrel: a b = b a\n",
}

CASES = [
    ("scenario verify-g12",
     "655ee7ec5a7a85e5816906e6456fb5493d2d5a182a38c9d1088dc2ec082fc0b8"),
    ("scenario verify-g13",
     "b6e754217047da2c5a3577ff18ce46a0126707abf2934f2a278dfa91454b17f8"),
    ("scenario verify-typeb",
     "e3c78b5cecf9454a4ead5f8f3491c257af6fa61228d299a5427cacd1127a60e1"),
    ("scenario verify-regular",
     "8ef9b06b0de9d4f5a5007858ea7849f41a4607739043653790ce43a437f04057"),
    ("scenario verify-pairs",
     "c91cadb671c6043e8579e016ba1eae27d541856faf22d4d1b24553b4cf349e43"),
    ("scenario verify-g13 --budget 19682",
     "8ef6faca8c05aa7e816e168acfeb6369b879d28f8ecc762c4e6edbe968153130"),
    ("scenario verify-nothing",
     "d10bb3567d0c94f9d05c1595691df7fb22155e758ea7f5ddc4afc598746254c8"),
    ("",
     "c2db5caadfea7a0954938772e0d1c4ffe4e742aa606ef2897ce54863f8df68de"),
    ("verify g12",
     "098b098fe30b3f6a0ddc82773ba8400607927b92863f72b6b359c6b3334682c1"),
    ("verify g13",
     "6b337cd036bd9edbe40b4c13d8ad8a8da5a44ce464b8a4b4bdc8bbb0de976448"),
    ("verify typeb2",
     "3d6f52f910084ccde6c01d3b1b236cfbbc044698607b8655ee854276ccbe4f97"),
    ("verify typeb3",
     "71bb76b2d3d5ba0030aef889bbb271a4c83dcbad6617301f568e7cbfe6c066e5"),
    ("verify g12.gar",
     "89dd0b5c517a1bd499a05601c6505c686d0afa9e52d6b3eafae45075df5c0531"),
    ("verify braid3.gar",
     "f1b9ea4e3a2ee2e7999b4030f8dc6083b6a55b75e983ea0d74afb5b0649a75c5"),
    ("verify unbalanced.gar",
     "80e2138279f5324d1d0549127ba2230810903b20b1519da7d2a53a48f134b282"),
    ("verify one_sided.gar",
     "62e2a35f349fdb819747eb8b54b7918e224f6cb13282761b448f0ed7b9eaa6f9"),
    ("verify stray.gar",
     "d6f63dbf2e8dca6190ba2118198bb2aded62b1461cb270a0b4598f166188473e"),
    ("verify no_gcd.gar",
     "fe8f8011ae4fcbf7f7dbfb27d947ae665aad36a90914b49820610bc457648aff"),
    ("verify residual.gar",
     "cbd04fa6b899ecd29c2a806ed50109a519d50dac4b6829b8986a01f2ba0d6d4c"),
    ("verify inhomogeneous.gar",
     "ebeb15ce11032c1ae9932d6db51fd0573738c10c77109ccfe3bc4d1ffc4bef02"),
    ("verify unknown_letter.gar",
     "23c59a2eeadc4f8deb97b821776da1028b29e73bf11f700e299912165c16d562"),
    ("verify no_delta.gar",
     "faa018cdf4cf7b39b7069cb0b067dbb9b9397035b9a88de6cb0cc4c0d97d7e6c"),
    ("verify missing.gar",
     "a82d077c24b07fe36e852cd081f38f5f6e8fb61cc30e616069b1fef98102cda7"),
    ("verify g12 --budget 0",
     "4b515c79e1e2ec5aeeb448a945a6a1220cf29da7ea86ce2f499c0c7d23a688ec"),
    ("verify g12 --budget 5",
     "de80b55834bbb5b7a3452f2b9c764991a5201e4f9d2da6fae2ba88d07b1b6719"),
    ("verify g13 --budget 19682",
     "8ef6faca8c05aa7e816e168acfeb6369b879d28f8ecc762c4e6edbe968153130"),
    ("nf g12 s t u s",
     "f2ee12115d573b7f169c4318c56e800d5f4bba0aaa711a06b0863c890b895391"),
    ("nf g12 s s^-1 t",
     "f6fbf1522d8c5fa215e171bee53f9d9c227215683f4b3fc3826d20724bd3bb25"),
    ("nf g12 ''",
     "68fc45b38a726a06f6a9afa09ca1e43bd336cdb23361e07787e8f898eae7d913"),
    ("nf g12.gar s t u s",
     "c0e34913b92ca38e3d88c2470b3ff866607120ac9a9054069bd8a958d8adc789"),
    ("nf g12 s^2",
     "fadc0e3cee2f4a09f05be13de8ee90616061f73f1a2de2493ee9dab3470cf766"),
    ("nf g12 x",
     "c3d46401824720c649d00e884e4b812d33157c6ea3239c88f5d739eae983d751"),
    ("nf g12 " + "s t^-1 u s^-1 t u^-1 " * 8,
     "72d66898f6b07b67aa3d57f71849ed5241b5985e8b815bda847c319c5a3a318d"),
    ("nf g13 a b c a b c a b c",
     "795150f40eb904d53c27195d7caca44ad500083d14aeb51bb64d0fd173a9a19a"),
    ("nf g13 a^-1 b c",
     "1629a91e91480bb0b8edb893d917b4f60eda1e53c2e94ba9367e80517ca57be7"),
    ("nf typeb2 b1 b2 b1 b2 b1",
     "331e9b34b7bd1df789d1d421555de5cea67185f4b39d3ea7a3c9f98c21ca8848"),
    ("nf typeb3 b3 b2 b1 b3 b2 b1 b3 b2 b1",
     "c03ec92dbeeffc3e0e4bb57a30014e0717b8a97874dde0c72d8c16189bd9a00a"),
    ("nf typeb3 b1^-1 b2^-1 b3",
     "38bf0c4e04b3488759700141e8d4d909530aa09f9223211fcf95afe97b8eb498"),
    ("nf braid3.gar a b a^-1",
     "e20099186e10d24f512d3850e541ed7f8b2b9d4b020ef08cdf3a5797121860d5"),
    ("nf unbalanced.gar a",
     "4688c1751197d37c1819c042a347155ae56eb88c6dcba1b232040d618e57d2ec"),
    ("divided g12 -p 1 -q 1",
     "b3541ef8b17b25e28ee46611a6c3352b03a258431127faea95eb02d3acdf8971"),
    ("divided g12 -p 2 -q 3",
     "38a710ac89fb51930f306981fe848b0bb4fba752e46213ed4f5ace61b390dbad"),
    ("divided g12 -p 3 -q 3",
     "861acc99a2f5b3d808413092d094ee8b5f2b698d358f29e35b25369d13759c67"),
    ("divided g12 -p 4 -q 3",
     "2490a18a0433466ca4891b3290f418fd81db72f920b75ec9ab7fa4e8b9ddb33b"),
    ("divided g12 -p 7 -q 7",
     "c4ddfc4165280e426c7ba87d0c0fcfbbc81efdafdc6aee90ba2ab98e75c7cb06"),
    ("divided g13 -p 1 -q 1",
     "63c6f59f545bb791b657372d821829a2140677134f4395e95fd65ba2398c76fc"),
    ("divided g13 -p 3 -q 2",
     "9a418c9359d4fd79d6833cbab522d3a9c4e8f1b12f15ef90a95ebebd1b4b7459"),
    ("divided g13 -p 3 -q 4",
     "e1ae52aec8d2c9d44fa10526684904550e34de6c8ddbba9d487909783a64c7b6"),
    ("divided typeb2 -p 2 -q 2",
     "86ce53ff9e9855dcd6d2bc79b5c29f130565a46661644833405e8c28cb6cb37f"),
    ("divided typeb2 -p 3 -q 1",
     "3c93684176c3979bf586034ee1161c64e9d5585872772d5c78f7468ddc6c4f35"),
    ("divided typeb2 -p 4 -q 4",
     "258ea9a1c2db0aa7454618b0ea80e143857a68260ac2162e1657610b9271e05e"),
    ("divided typeb3 -p 1 -q 1",
     "789b874a908a88ac9d8ba323949f8d0a6936e65a7a57eeb0ab0595b164ca9698"),
    # 4.9 MB of JSON; its stdout alone hashes to 1df13295... (test_cli.py).
    ("divided typeb3 -p 2 -q 2",
     "e2914ffdf553ac73936c7d0b0b9cb9e18626aaac4e48810cc5cd7e89311ad3a8"),
    ("divided g12 -p 2 -q 3 --dot",
     "d992298a01741212882cb659dbece9a2eead74bb6fb4a5400cb1514bdc8a7b60"),
    ("divided g12 -p 3 -q 1 --dot",
     "f6fc567a6622dd57e5afc0100581d28123bb8361e8ca95413bb434879ad0b12b"),
    ("divided g13 -p 3 -q 4 --dot",
     "bd9d71fd8e136233fe6468845cfccaeb291696ba1e89931051eca123af2c78df"),
    ("divided typeb2 -p 2 -q 2 --dot",
     "cc82b11087e9784108a36759f51307447074e636b060f7730e1629e9dadd5871"),
    ("divided g12 -p 0 -q 1",
     "1fd34864a86e8f4260496200f21d05a5162d11d2bf1eb13383f549991d6e821e"),
    ("divided g12 -p 2 -q -1",
     "1fd34864a86e8f4260496200f21d05a5162d11d2bf1eb13383f549991d6e821e"),
    ("divided g12 -p 1200 -q 0",
     "cd7b0d6b193cde8b53cc0e229bf6cc1ff7e1026c855222da545346321a57182f"),
    ("divided g13 -p 4 -q 4",
     "35617e8945138a064b8fda537aa30b48cea1b0558cab84d7dc3bd0f4db1baef8"),
    ("divided g13 -p 30 -q 0",
     "2f48d4af0e24f3af6658c7f77cf715e755c1a41cb54aae2c899a1fafc0ed0d61"),
    ("divided g12 -p 2 -q 0 --budget 365",
     "7df050e94018832ea1897ad26227167b55899ebb0701532f3f346976d07119c6"),
    ("divided g12 -p 2",
     "0ba30a0ad7c819b5bdde092033ed93bb6c6b87bde5ba5015ae87f074c01c163b"),
    ("divided missing.gar -p 1 -q 1",
     "a82d077c24b07fe36e852cd081f38f5f6e8fb61cc30e616069b1fef98102cda7"),
    ("roots g12 --zp 6 -d 12",
     "0e15502bc33287035ef63fbd65559b3416e7c1cd1a8f09c84e15bda16aea3b97"),
    ("roots g13 --zp 4 -d 12",
     "d102d6e512f46145d1e02bacad70d3c831c54fdbf0139914762e39541b5e59a9"),
    ("roots typeb2 --zp 2 -d 4 --centralizer",
     "4e12ca4855812f0b78a5968cd67476a5d8555f93ddb5c9c274028f49f9c09326"),
    ("roots g12 --zp 1 -d 2",
     "c9ecb8caf0d415073f255c60554fd54b851085075968a08295bb0a849d755acf"),
    ("roots g12 --zp 0 -d 2",
     "921aef53642a52071e2c15fcb326b5fb27336a5dd79412abad6effbef21b4d23"),
    ("roots g12 --zp 6 -d 0",
     "bd1a7c9c19462f8f9bad8e8b1130e2889f6c778812512b2a7fa74127ee3a8fd0"),
    ("roots g12 --zp 6 -d 1 --centralizer",
     "58af86fa63190337909390165e62b0e4a2065ba3ce92600f7503ac48b4c7b8a4"),
    ("roots g12 --zp 6 -d 2 --centralizer",
     "5b89ed146b2a0dffd1d395ea30507466589e74f7971001efdda784a6d874951b"),
    ("roots g12 --zp 6 -d 3 --centralizer",
     "285b0c5367e83a611bd9ca382b347fb779b3b7bff78392fb12d08f2d918169f7"),
    ("roots g12 --zp 6 -d 4 --centralizer",
     "2c0a001b3f00834d8073785d87ceb8db3fff9dc777181790ac753da7414402aa"),
    ("roots g12 --zp 6 -d 5 --centralizer",
     "00dfd14e9b4a6aa92e05cfc8dade7b5c053da0d24cf6312fee33fd8432b6896c"),
    ("roots g12 --zp 6 -d 6 --centralizer",
     "a129a340000286976aeabd57de08a391d55045f676cbbaf3679c09b9db578349"),
    ("roots g12 --zp 6 -d 7 --centralizer",
     "61613cdb90a405b3e10f63457c9542d27eb79b28f8ea586e1b55c5bc8827a9f8"),
    ("roots g12 --zp 6 -d 8 --centralizer",
     "734d744700d9271cb6741680316e62eed483a7559495045ef19f32a4fd988d4f"),
    ("roots g13 --zp 4 -d 1 --centralizer",
     "df3d72ed9cf8c60d05ea6c169a081685e2fcb5d6d75a0715d155a96314dc5033"),
    ("roots g13 --zp 4 -d 2 --centralizer",
     "bba3c4b696ab096f995a9955102a6f055ad02ff24a3712afd8f8908a9db379d9"),
    ("roots g13 --zp 4 -d 3 --centralizer",
     "3aee40dcb56463bc1cc5435ac33065c85bca497d1efbe7acec65a85218aa52fe"),
    ("roots g13 --zp 4 -d 4 --centralizer",
     "5e97f978f4f7042e68b46ffc77f9a3673e1a651b147081cdaad22b24ab149a6e"),
    ("roots g13 --zp 4 -d 5 --centralizer",
     "c59d0cd5db59192c87731c2957bef4a2105e47f8bef86459b6fe5d4b70df757d"),
    ("roots g13 --zp 4 -d 6 --centralizer",
     "a8f491b002309678842f26a3d249e20f8488d302f7684d18b7c744a9e0c56950"),
    ("roots g13 --zp 4 -d 7 --centralizer",
     "c63d7e1705bf50e1d11b3d04e2447390fd4827471273eea0be0cd357573d658b"),
    ("roots g13 --zp 4 -d 8 --centralizer",
     "23e382dd24771630b03b76045ad02c2dd17f2d00f499c20bba111fa5d77b9453"),
    # The C_1^2 centralizers the installed-package CI step checks: typeb3's
    # stdout alone hashes to c6b18855..., and g13's reports "relators": 340.
    ("roots typeb3 --zp 2 -d 1 --centralizer",
     "2ddd88a7926f8cc0eb23f181c1beb6b30565eb035f1f18e3e3e09192bd2f3681"),
    ("roots g13 --zp 2 -d 1 --centralizer",
     "c053395f29215de0c38ea260db22a98b72ce860ab1e3920b68f276a19756e3d2"),
    ("regular G4",
     "ed809cd42ab9b9125b8eeedf908ef39de8f3358d0326a25e9859c11a57a4b15f"),
    ("regular G12",
     "3b5a661c3b0093804ba304f8fe335a30987b2f7edeff1474c77bbd231b1838dc"),
    ("regular G13",
     "70dac77e92161b46f2a93bff31a1d57a0103f2a68fc6ee2baf509ac7cb91e279"),
    ("regular G31",
     "fb00b049429242a969a58035d89d5c5dcc97c273f2bdf579aaea8a1f0fa6f461"),
    ("regular G37",
     "99bcb52ee1abd6a2db29816d76d46788a00b7a9d4e72683a78119933db6b43c8"),
    ("regular G(12,12,2)",
     "b65453dc2f38e9380ff9e19b7f07a70c8a509d824d508f31500d235d2338aedb"),
    ("regular G(1,1,5)",
     "fa9abb6500d2d09ce3fcdd93fa0e22b52b3f0b6325e2b7866f6c6d051bab5c01"),
    ("regular G(4,2,3)",
     "9b1e2fd94847c64d7a4663d2df42cb99f333d02dc9e2ff5c4291ea251e16a390"),
    ("regular G(6,3,1)",
     "424ab4c603de6563b1061fe975eed00f5759decf47d8332f303835ad8dfc1bc0"),
    ("regular G12 -d 4",
     "78685d7a6e873f21d021302ca3c7c9ee4d331ad685f40185a1a27eec63e0ef96"),
    ("regular G12 -d 5",
     "766aab356f348b3995eebb567d1054207af480c04e27b07b2b27e57c82567160"),
    ("regular G(12,12,2) -d 3",
     "50718b13147e83ede20642528902c0ceb417a75934485af0062e3e6e2f7cc8dc"),
    ("regular G(5,1,1) -d 5",
     "3683ed714cd4727185eb45609a8afa00430d84d1096eb7696f68d641d9e5cbf4"),
    ("regular G13 -d 0",
     "0a2ba8fea6dafbab52ceceaf935ed6cfd6f3ea824cd5a10c5a898d981d2f69cb"),
    ("regular G99",
     "692c9c214a248003bfc8a330aded5c577c28fc7188a01478345b75e6aaaedd5e"),
    ("regular G(1,1,1)",
     "ed47349c2a097eb951f878d27049aa1e369a3c21ee2e1987a4062487f114cd2e"),
    ("regular G(4,3,2)",
     "52f17a403ab4bf6a9ac5406888a8123d7a3da6c40c9123beacf87157f4f7d96a"),
    ("regular G(100000,1,2)",
     "36b3f92ea1f0135a8f8990f464d4fe49c8bb2396b23b7947510310071cdaf728"),
    ("regular H3",
     "8ca27bf627f2d6a3372cd82facdaca858f886de9376f3d1299f650004d359263"),
    ("pairs",
     "366a84dac39c1c1e922f8218015c641a9112006498cee274def2190830717729"),
    ("pairs --max-de 6 --max-n 4",
     "2807e2011295302f4d89b16e79c4fa1ea845a83d8d4b93ef5178e94ccdd0ca61"),
    ("pairs --max-de 24 --max-n 5",
     "ed2dbd8b7e323893b33e026f0058a2b3574d38517764eb24c740191b73b2983d"),
    ("typeb -n 1",
     "902bb4fffdf62ac30de08f1c6bd658afb97ba172b7f4436ec5ad531feaca0ef1"),
    ("typeb -n 2",
     "5d56a991e213942bad535eea91ef8bec23d80fb132efbf01c5bacb7d0f5f5ebc"),
    ("typeb -n 3",
     "2928fda9507d36366086878af5aee864f9ea514d2198f3852d18b519ec8e2e35"),
    ("typeb -n 4",
     "bafa6a4903388d8e3d4af4769c4041c0a2cc54a084f34f82f892efc5add82147"),
    ("typeb -n 1 --check-epsilon",
     "4b74ad3a92c2767168d83dd5de7300cace2e8402f91978c91fd060423d64e7f4"),
    ("typeb -n 2 --check-epsilon",
     "15ff1c21d443bb3361096b723e3d3111031fcb0f045900d6c113fcb6fe9e27ee"),
    ("typeb -n 3 --check-epsilon",
     "46b9f7191db11d011f8dea889c8f60997f6991d8119984a8a7b6f8067c6c9bd6"),
    ("typeb -n 4 --check-epsilon",
     "4a4fdf14e9e38c7dfad7d6514aae64280b91cca40ada913b8ca336c9a1dacefe"),
    ("typeb -n 0",
     "583fffab6ac0cc4f55c2c48a2b5cb3f2c94b3ab975da733e7048ef2bc3e57c31"),
    ("typeb -n 3 --wd 'b1 b2^-1 b1 b2 b1^-1'",
     "e58cec23864f882cf699ef629bc718b8bb08d65782214c4385c1bb8af1ad9618"),
    ("typeb -n 2 --wd b1^2",
     "bd62ffa1dde15ece0210d7dc90b01085c7f94d53bd3c6ff07a5fb5f510178fcd"),
    ("typeb -n 2 --member b1",
     "f468f610696e01f1e9c8d3ed7c15a870e0b48539e415341e65a96894cf9a34b4"),
    ("typeb -n 2 --member 'b1 b1' -e 2",
     "200dc09e5672b4d418062e030d5098fef4eab959397830fb0c037d4521f3c643"),
    ("typeb -n 3 --member 'b1 b2^-1' -e 3",
     "7d840bcf60d50d509718f65224f462d96f157c332ae7581548c7a7692852b59e"),
    ("typeb -n 2 --check-epsilon --wd 'b1 b2' --member b1 -e 1",
     "243983568865a88c55c2e4f61d473174926b8bc3e3b6e6cb5b60dd721e0fc340"),
]


# The 4,000-letter random signed words of the installed-package CI step, one
# per structure, built from its recipe; stdout alone hashes to the step's
# pins: g12 42479a46..., typeb3 f6087999..., g13 6e271f2a....
SEEDED_NF = [
    ("g12", "stu",
     "bb01e62b7e0c9132ed18cb3b341a32d447ad6740406e33bda19deef5ac20713c"),
    ("typeb3", ("b1", "b2", "b3"),
     "d26d066917275204f6b2ad066b2e251ea43ff6f8a6403b98600b13eebc98b58f"),
    ("g13", "abc",
     "29f30395b3e5d37e63e2828a5c440df91a21e711f37f190a6f8a644112a458d9"),
]


def seeded_word(letters) -> list[str]:
    r = random.Random(4000)
    return [r.choice(letters) + r.choice(("", "^-1")) for _ in range(4000)]


def outcome(argv: list[str]) -> str:
    """SHA-256 of [exit status, stdout, stderr] for one in-process run."""
    bundled._structure.cache_clear()
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


@pytest.mark.parametrize("line, digest", CASES, ids=[line for line, _ in CASES])
def test_cli_output_is_byte_identical(monkeypatch, workdir, line, digest):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(shlex.split(line)) == digest


@pytest.mark.parametrize(
    "name, letters, digest", SEEDED_NF, ids=[name for name, _, _ in SEEDED_NF]
)
def test_seeded_nf_is_byte_identical(monkeypatch, name, letters, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(["nf", name, *seeded_word(letters)]) == digest
