"""Golden CLI guard: the exit code and the SHA-256 of stdout of fixed commands.

The digests were captured before the triangle store, the identity
precondition table and the output path were each reduced to one.  They
pin every README command that runs in about 2 s or less, in all three
formats, plus empty and negative ranges, SKIP-only tuples, usage and cap
errors, and ``check`` failures under a store with one poisoned cell.
"""

import hashlib

import pytest

from rlah import cli, identities, lah_core

GOLDEN = [
    ("table --n 3 --r 0 --a 1 --b 1", 0,
     "b18b1526f571378e333cdcbdaeb4b4a284d28188aa62a5e69b02d74da1112c71"),
    ("table --n 3 --r 0 --a 1 --b 1 --format csv", 0,
     "20e25c592f44b06bcc15a90fade73dea970b6b88dbae3897b8e78c206e73057d"),
    ("table --n 3 --r 0 --a 1 --b 1 --format json", 0,
     "eca2a2b25f4a31e4d7a2c33a9c5912c84a51aa10934a625ad86728d7c782db4d"),
    ("table --n 2 --r 1", 0,
     "cf19281a4ebbc160cef211dee7fb8b7923e648b2e21911e9de030c25e831d227"),
    ("table --n 2 --r 1 --format csv", 0,
     "988ec12220bf9fa38e14ad34f05867443ec8063a35e49979e62405e781519b05"),
    ("table --n 2 --r 1 --format json", 0,
     "7417e694c51ee2f41f83454b975801840167e40a7a6da2b3ffb542d59bab092c"),
    ("table --n 4 --r 2 --a 3", 0,
     "4de59cf6d29a21b0a333bbc3b1ad87eb68e49fd9cb29c1034ceb389a97407137"),
    ("table --n 4 --r 2 --a 3 --format csv", 0,
     "dedf9cdbcc439cf80ca4d1d488f744d81d409ccd266498cc714a2154ed89ded5"),
    ("table --n 4 --r 2 --a 3 --format json", 0,
     "9ccdd579060112e9399408740d796cfa6f0a5075db1a97706708ff38941da979"),
    # long polynomial fields: 170 kB of csv
    ("table --n 30 --r 2 --format csv", 0,
     "32f8ce50d6cf6be8337eb0d9095546d8133b7bbc6bed732ce0703bec5005c09c"),
    # symbolic cells past n = 30: 530 kB of json
    ("table --n 40 --r 3 --format json", 0,
     "a4746cd4794c9c146aaf9ff043c355783f026b56337423f3e6c14c001d06ce39"),
    ("check --id connection --n 0..6 --r 0..3", 0,
     "8e1c2bbd3086be45a4f789a378c585b1d88a8f5ec20d78eb04198340e62052d5"),
    ("check --id connection --n 0..6 --r 0..3 --format csv", 0,
     "8c2ae5376b590ad5012a6bf2b7897a7c69069871db0d9476bff0e27e66f0ea98"),
    ("check --id connection --n 0..6 --r 0..3 --format json", 0,
     "5ebf3769a3f17ac7c0458bdfdfaf3bc3dafafa4ea7f9068495a9dffb59e250cd"),
    ("check --id all --n 0..5 --k 0..5 --m 0..3 --r 0..2 --s 0..2", 0,
     "3006652beb6085d3f01ecc8743d322e939118818302095daf0053c03664171e7"),
    ("check --id all --n 0..5 --k 0..5 --m 0..3 --r 0..2 --s 0..2 --format csv", 0,
     "89b94d60d82a77be6bf4dd7c31e467ef44f7223b9e662aa44f59fe7fe6e3fbd0"),
    ("check --id all --n 0..5 --k 0..5 --m 0..3 --r 0..2 --s 0..2 --format json", 0,
     "e4676d8356d7fbc60af5b7a311a6dec66d2cac29360a4dfce15ed8c7887db7e6"),
    ("oracle --n 5 --r 3", 0,
     "cecc2def50a51eef27d7293832af29a6bf340d3c2bdce34aea6e7e105dc55221"),
    ("oracle --n 5 --r 3 --format csv", 0,
     "ae382e22e6fb8ea2f3598027bf483097cece589ff3b97a7e9dc8720b03c3c7ff"),
    ("oracle --n 5 --r 3 --format json", 0,
     "205fde9cb37b587d29c171648028a005cdcbadc7f5c725b77e0d4718d5dfbf33"),
    ("oracle --n 0 --r 0", 0,
     "2739f55b806424d42179b1f13b4095adba92d7b59e2d793f6b0e11c6995dde26"),
    ("oracle --n 0 --r 0 --format csv", 0,
     "989fa6478a6facf95856709ac23ad52e113ee2dc7fe0afb1c037b7fb8905d0e7"),
    ("oracle --n 0 --r 0 --format json", 0,
     "1a55eddbfa37fe95101eed2351aaf12134275e5bda771d0a93f12821078623d2"),
    ("constructions --id iv --n 0..4 --k 0..4 --r 0..2 --s 0..2", 0,
     "f3810d448ed22fe1056eebc772ba6fee088b20cfdff893d965b829a17f48bdd3"),
    ("constructions --id iv --n 0..4 --k 0..4 --r 0..2 --s 0..2 --format csv", 0,
     "ebda504aaeaae9e4e0e4c610de451ea4bdd32b3260a61ac52848410775921252"),
    ("constructions --id iv --n 0..4 --k 0..4 --r 0..2 --s 0..2 --format json", 0,
     "7d325623f0dbea7bb3dcff2461b8157cf03f81ed70fee644a2d8895ee134afea"),
    ("constructions --id iv --n 0..3 --k 0..3 --r 1 --s 3 --trace", 0,
     "75a81f2774c3138067ad617b8f0e08da828ed6117bd3172f58a209b4560fddc1"),
    # every IV image with |r - s| up to 4, where two surplus pairs are joined
    ("constructions --id iv --n 0..3 --k 0..3 --r 0..4 --s 0..4 --trace", 0,
     "8f1157393ce31d38e768209f924f05fe7548321d14b65903d62cbc65f05ab368"),
    ("constructions --id i_pos --n 2 --k 1 --r 1 --s 0 --trace", 0,
     "9ac7df79ac9555a794c636ca23dff0a16aa2ab7cebf9af4485f5abfe36bed151"),
    ("constructions --id i_pos --n 2 --k 1 --r 1 --s 0 --trace --format csv", 0,
     "a30259fb3a46deb05664bc9f206d64106530398aef86b97198431b8194329cd6"),
    ("constructions --id i_pos --n 2 --k 1 --r 1 --s 0 --trace --format json", 0,
     "b89b49ddf284a6a2e087f80b34a68fd7b37a9b9030048aa4a222aa50c7534160"),
    ("constructions --id ii_mid,iii_mid --n 2 --k 1 --r 1..2 --s 1..2 --trace", 0,
     "05b28d8649b8d83aff122174e9b420c775e1d967d2caf9488d01f0d0736b8b1f"),
    ("constructions --id ii_mid,iii_mid --n 2 --k 1 --r 1..2 --s 1..2 --trace --format csv", 0,
     "8f5310a5a46172fffcdde63f25433027f6d6d920d79a859d1afeccbdaabefd1e"),
    ("constructions --id ii_mid,iii_mid --n 2 --k 1 --r 1..2 --s 1..2 --trace --format json", 0,
     "807700f666bb4132fdf96b8b9fcdf3679e60e6e56ea2582014ac77783b9218b5"),
    # every map application at n <= 3: the order in which each involution
    # tries its moves is part of its definition, and no verdict checks it
    ("constructions --id all --n 0..3 --k 0..3 --r 0..2 --s 0..2 --trace", 0,
     "6c171dcf783bf41ecc04fb9efcfbc1cc1cd8a10008363669621a384e0236e218"),
    # a tuple whose trace tells the left section from the right (the n <= 3
    # trace above does not)
    ("constructions --id i_neg,iii_lt --n 4 --k 0 --r 0 --s 1 --trace", 0,
     "6110fd07a2b01991f4ad3bdcf856be0ce590d0568d08ce071bf821f4a01bacee"),
    # the largest pair family of the benchmark's constructions workload
    ("constructions --id i_pos --n 5 --k 0 --r 2 --s 1", 0,
     "e6b0d7841b16da8e83a4f54e986eede499ab4a178bd426ea03693b2a26a48d39"),
    ("sequences bell --n 7", 0,
     "0632ca8dadce9d1092d254289afa20dd6dcb229d908fc28a4b7b09b80383de16"),
    ("sequences bell --n 7 --format csv", 0,
     "74ca08c9556462448b677508c145edd655c0df4dd88d97fa0b96beaba56305ab"),
    ("sequences bell --n 7 --format json", 0,
     "26cf8c4f2b4e61a1d28d08a5f915ec83393caaaabc3ebc97db44c1ef381d841f"),
    ("sequences a000262 --n 6", 0,
     "4a770e2addf58609d3b8bca25f850667096a5d49057a643e2dba28b60b0fefaa"),
    ("sequences a000262 --n 6 --format csv", 0,
     "e9537ed6c8b83a37fbba674861f3163c665d3703db5a1dd7c41925c004fcc0b4"),
    ("sequences a000262 --n 6 --format json", 0,
     "579401aae6833353e3ce9c17b61415a47a543fdb90932e48a9d2322398b50040"),
    ("sequences r_bell --n 6 --r 2", 0,
     "fe2a60e7cac2add42ddf1099e7141bcff1bcab058801df78cce68545bdb8f4dc"),
    ("sequences r_bell --n 6 --r 2 --format csv", 0,
     "69324ab2058cb1d76063197a5cb0cd488ca4499a555ad4ff4cb914738932183f"),
    ("sequences r_bell --n 6 --r 2 --format json", 0,
     "24d00582c3f0c750043600cca9c1937d7cc2646ed04173edee7791dbb114636a"),
    ("sequences bell --n 12", 0,
     "e6701411c32e9d919b83306e23d96783fc136568f0610126ed09f9395e7b3055"),
    ("sequences bell --n 12 --format csv", 0,
     "1941cd573936a3b072f2b5fcb272552cea93633a7bcffa39032d9f16d41e654f"),
    ("sequences bell --n 12 --format json", 0,
     "89b86018ac939aa6aaf54fea9aa7c21617b236c4210991a0afa9ce94ce7cc032"),
    ("sequences a000262 --n 12", 0,
     "c234f0f9046ff6c301cc2c71c482d31b763ce6f471c580af1d9af609951b3b64"),
    ("sequences a000262 --n 12 --format csv", 0,
     "c6a4c490caa202016856e44b9fb38c44459a55a9738dbad9b274157a6c137ef1"),
    ("sequences a000262 --n 12 --format json", 0,
     "6ef3569e959f4920d04fe7a45311701dc36786f681ed96e0c1255f92a7464d40"),
    ("sequences r_bell --n 12 --r 3", 0,
     "76dbc1765790fd1940fc155d8bb313c3a6f6f421e441170fe97c146542285873"),
    ("sequences r_bell --n 12 --r 3 --format csv", 0,
     "3bb6e4c801d5946c44cba7ca62b3ab73d8bfc27c14c97e702bb2c384871be4eb"),
    ("sequences r_bell --n 12 --r 3 --format json", 0,
     "8d6f701d8bdd7b8ec7cd42acef5089c3d93d928b9b3dae7e88ced3f40411f84e"),
    ("check --id connection,vertical,horizontal,shift,convolution,splitting,rowsum_shift,rowsum_split,rowsum_decomp,rowsum_rec,marked_rec --n 0..8 --k 0..8 --m 0..4 --r 0..3 --s 0..3", 0,
     "c9a60acfc9726bc6054372c8d15aca4a500fa369653147417ab986839f44b2c2"),
    ("check --id connection,vertical,horizontal,shift,convolution,splitting,rowsum_shift,rowsum_split,rowsum_decomp,rowsum_rec,marked_rec --n 0..8 --k 0..8 --m 0..4 --r 0..3 --s 0..3 --format csv", 0,
     "06dae121b54f4ddaa7f5cbe5c60129c386f2aa325666bb9f98c2e5c1dce64d6b"),
    ("check --id connection,vertical,horizontal,shift,convolution,splitting,rowsum_shift,rowsum_split,rowsum_decomp,rowsum_rec,marked_rec --n 0..8 --k 0..8 --m 0..4 --r 0..3 --s 0..3 --format json", 0,
     "26400e7ca9acf75a28a6c1b3ccb1b125129114818fdf9b882d1a878ffceff9c6"),
    ("check --id rlah_i,rlah_i_neg,rlah_ii,rlah_iii,rlah_iv --n 0..8 --k 0..8 --r 0..4 --s 0..4", 0,
     "bdadebca52dedca5f107601fc358c2702525a0b74d91cbd60bb27b8755830467"),
    ("check --id rlah_i,rlah_i_neg,rlah_ii,rlah_iii,rlah_iv --n 0..8 --k 0..8 --r 0..4 --s 0..4 --format csv", 0,
     "b5aec60b35ca98dbfe93b9b6b23bafaa92f8cb80b5bd2f50d0f5a91d0bc66fc8"),
    ("check --id rlah_i,rlah_i_neg,rlah_ii,rlah_iii,rlah_iv --n 0..8 --k 0..8 --r 0..4 --s 0..4 --format json", 0,
     "56450117fe5f65ab6bc199f33984f486b9d8b23649c397433916db2b7df0350a"),
    ("check --id orth,triple --n 0..7 --k 0..7 --r 0..3", 0,
     "205f8cd1083313f5421b3369a25f330ca2b8734f37ff31dae0afc35b988d2e5a"),
    ("check --id orth,triple --n 0..7 --k 0..7 --r 0..3 --format csv", 0,
     "03932c8da05048d0e2c6447e8757cc9b8c27d56bc041802efb958a7b196ebd53"),
    ("check --id orth,triple --n 0..7 --k 0..7 --r 0..3 --format json", 0,
     "64ac3cafa5db9fd32eb7f5dc40a468a5dd1b5589fe83c28217b01d0765b05a60"),
    ("check --id inversion --n 10 --r 0..3 --s 1..3", 0,
     "6cffbdd38eae07f67d4ba699fe8fcfda46cf41ea212039c5ca8824354175a0c4"),
    ("check --id inversion --n 10 --r 0..3 --s 1..3 --format csv", 0,
     "ae7cf3ef1fb90a2aa0a8844bd5477ecd9dd9b7958baab0215b3f19bfcd41267b"),
    ("check --id inversion --n 10 --r 0..3 --s 1..3 --format json", 0,
     "38d3065563a2b7a9db1362ae20dd04c525804a911852fa55149b3696c2efba58"),
    ("check --id connection --n 1..0 --r 0..2", 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id connection --n 1..0 --r 0..2 --format csv", 0,
     "23f03c393d857751a06fe36c6838bf99f7f5699fad5b0b2ffdf6eb60b1b9c5e3"),
    ("check --id connection --n 1..0 --r 0..2 --format json", 0,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("constructions --id all --n 1..0", 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("constructions --id all --n 1..0 --format csv", 0,
     "f100b81db8086b92c84c95928ef0ee7a9caa049b26c6c55ccc026f11f5cc2519"),
    ("constructions --id all --n 1..0 --format json", 0,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("check --id connection,shift --n -1..1 --k -1..1 --r 0 --s -1..0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id connection,shift --n -1..1 --k -1..1 --r 0 --s -1..0 --format csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id connection,shift --n -1..1 --k -1..1 --r 0 --s -1..0 --format json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id inversion --n 2 --r 0 --s -1..1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id inversion --n 2 --r 0 --s -1..1 --format csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id inversion --n 2 --r 0 --s -1..1 --format json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("constructions --id i_pos --n -1..1 --k 0 --r 0 --s 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("constructions --id i_pos --n -1..1 --k 0 --r 0 --s 0 --format csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("constructions --id i_pos --n -1..1 --k 0 --r 0 --s 0 --format json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --n -1 --r 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --n -1 --r 1 --format csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --n -1 --r 1 --format json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id rlah_ii --n 2 --k 1 --r 0 --s 3", 0,
     "055f31cdbbb614c479cbeb089cc586de5cbfe8801aa1c5e91cbf77fe5d482408"),
    ("check --id rlah_ii --n 2 --k 1 --r 0 --s 3 --format csv", 0,
     "a2a08aa0cc3752246e3a63c091fb21e9d49b0c59cd06f5216ecd40174b753de5"),
    ("check --id rlah_ii --n 2 --k 1 --r 0 --s 3 --format json", 0,
     "efdf1bebd0339eebaf33c9f5adff4f9f59c7db0733923811735fb25ffe63ce99"),
    ("check --id vertical --n 0 --k 5", 0,
     "90eaf8422bd8ba1805b1eb99a6f87f583133061bd08653ad0091e8ac886d9c9b"),
    ("check --id vertical --n 0 --k 5 --format csv", 0,
     "4225fd43be67052ef1972d5057c0b247e96341e9058ca41a0eff1aaacbfd3191"),
    ("check --id vertical --n 0 --k 5 --format json", 0,
     "fbb7721b48cd45eb77e19e994491a23735956078173faef2167c21d2e868a552"),
    ("check --id connection,shift --n=-1..1 --k=-1..1 --r 0 --s=-1..0", 0,
     "f2b130d71cce8109e2081a8c86590ad629646b65ff8e21b4f34404a85c084d8b"),
    ("check --id connection,shift --n=-1..1 --k=-1..1 --r 0 --s=-1..0 --format csv", 0,
     "1753ec1d664ef498e7b9ba82723c9bfe2327c901f1c3f8fed786a9ad1c85f104"),
    ("check --id connection,shift --n=-1..1 --k=-1..1 --r 0 --s=-1..0 --format json", 0,
     "aa7118823a2f0563d6283f313967eb696a69e414f05cef5f0fdc9702abfabe54"),
    ("check --id inversion --n 2 --r 0 --s=-1..1", 0,
     "de25ebe5d33873b9df9e82093c28c14205603e0921c4d1817b2fb3219af522d9"),
    ("check --id inversion --n 2 --r 0 --s=-1..1 --format csv", 0,
     "c006849676d3100016557c1a540ba9d4151e048f20bf55fd1efd82ad89f73875"),
    ("check --id inversion --n 2 --r 0 --s=-1..1 --format json", 0,
     "2064b964d28e0d6d04461a94bc9a6e756b8c48291df0bab1773f9eae4b025927"),
    ("constructions --id i_pos --n=-1..1 --k 0 --r 0 --s 0", 0,
     "a2edf6691bf8dabcb97a4fedeef34f171e8e69d255de19c65b0f83d69252db87"),
    ("constructions --id i_pos --n=-1..1 --k 0 --r 0 --s 0 --format csv", 0,
     "a21fd9ec6a055785c3ab62f36970ffc7c0f97ae8a66e90bde7a9ca9364ce383e"),
    ("constructions --id i_pos --n=-1..1 --k 0 --r 0 --s 0 --format json", 0,
     "e0e164f46ab31e7aff59b484dd5360c33f98ffbe9c701ee7927365632ce1d9f4"),
    ("table --n -1 --r 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check --id bogus --n 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("constructions --id zzz --n 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sequences bell --n 13", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sequences r_bell --n 3 --r -1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --n 4 --r 2 --cap-override 5", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("table", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nonsense", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

#: ``--help`` of the program and of each subcommand, recorded at an
#: 80-column width before the modules they name were loaded lazily.  The
#: oracle and constructions help texts print the enumeration cap's default.
HELP = [
    ("--help", 0, "057225e81704beaf32650e696f6e58e9596e5653e7eb7b3a7a2fa45e278e8f37"),
    ("table --help", 0, "3ae2c67632a35886288a0d3590d768867d961d508752cbe7e6d43c8bb8097234"),
    ("check --help", 0, "79ad8432c520dedea4690345ce89150957f8192b6b82dddc70b929a65d129ad3"),
    ("oracle --help", 0, "ff048f80abfeb302dbb03229f8a4b6c771322c024cc5fa424473514b38e92bd8"),
    ("constructions --help", 0,
     "95213b2c098acae87e311086b77b474333195d9ddf40df75a4056cdc89e7afdb"),
    ("sequences --help", 0, "9662b51b0cfe3f0b2e06267ea36089ba606ffbaa1749b9318bd156f5eff26576"),
]

POISONED = [
    ("check --id connection --n 3 --r 1", 1,
     "a1803311e7a3078d619836a0daa2c61cab114ac51a5443dca8eeb3c9930f435f"),
    ("check --id connection --n 3 --r 1 --format csv", 1,
     "0451f84d0263cd9862737d3902e1f690b14aa66fb1bc19b5c3b4ccc69ef9c141"),
    ("check --id connection --n 3 --r 1 --format json", 1,
     "92b0b15b2b5be4a442af046d3a1c5fb0dd7155b2c4c070942ce001f6c302b5b3"),
    ("check --id orth,triple,rlah_i,rlah_iv,rowsum_decomp --n 3 --k 1 --r 1 --s 0..1", 1,
     "5b48497f25cf60e12814e8e0b38e381d3fdfc387fe3e346bc0267b71cb9f97f3"),
    ("check --id orth,triple,rlah_i,rlah_iv,rowsum_decomp --n 3 --k 1 --r 1 --s 0..1 --format csv", 1,
     "600d847b2979a92c7862e941af2a9e1cb0ff4fc5d61260d13545319241d7f932"),
    ("check --id orth,triple,rlah_i,rlah_iv,rowsum_decomp --n 3 --k 1 --r 1 --s 0..1 --format json", 1,
     "a0eafb9cdea10fbd08e527427b15ef322a8fcc6732ffcd29048cac975f3f2426"),
]


def run(capsys, command):
    code = cli.main(command.split())
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command,code,digest", GOLDEN)
def test_golden(capsys, command, code, digest):
    assert run(capsys, command) == (code, digest)


@pytest.mark.parametrize("command,code,digest", HELP)
def test_golden_help(capsys, monkeypatch, command, code, digest):
    # argparse wraps its help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, command) == (code, digest)


@pytest.mark.parametrize("command,code,digest", POISONED)
def test_golden_poisoned_store(capsys, monkeypatch, command, code, digest):
    poisoned = identities.Checker()
    poisoned.corrupt_cell(1, 3, 1)
    monkeypatch.setattr(lah_core, "DEFAULT", poisoned)
    assert run(capsys, command) == (code, digest)
