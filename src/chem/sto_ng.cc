#include "chem/sto_ng.hh"

#include <stdexcept>
#include <string>

namespace qcc {

namespace {

/** Row of (n, l) in the table, or -1 for a shell it does not hold. */
int
shellRow(int n, int l)
{
    if (n == 1 && l == 0)
        return 0;
    if (n == 2)
        return l == 0 ? 1 : (l == 1 ? 2 : -1);
    if (n == 3)
        return l == 0 ? 3 : (l == 1 ? 4 : -1);
    return -1;
}

} // namespace

const StoFit &
stoNgFit(int n, int l, int n_gauss)
{
    // qcc_test::fitShell(n, l, n_gauss) printed with %a. The fits are
    // not monotone in n_gauss everywhere (3s at 6 trails 5, 3p at 5
    // trails 4): that is the fitter's output, kept as it is.
    static const StoFit table[5][kStoNgMaxGaussians] = {
        {   // 1s
            // n_gauss 1
            {{0x1.1573ddd1fe191p-2},
             {0x1p+0},
             0x1.f4f16b9d6d2d5p-1},
            // n_gauss 2
            {{0x1.b4218ffcde4a4p-1, 0x1.3686443b192c8p-3},
             {0x1.b8739df23aed9p-2, 0x1.5b9a8c64ca787p-1},
             0x1.ff30de017898fp-1},
            // n_gauss 3
            {{0x1.1d2405b978dcep+1, 0x1.9f827d4eefb04p-2,
              0x1.c1cfffec15d04p-4},
             {0x1.3c10cb97d2742p-3, 0x1.121689dea3b94p-1,
              0x1.c74e479ed4429p-2},
             0x1.ffea56a7acff4p-1},
            // n_gauss 4
            {{0x1.4de0e3a47c76ep+2, 0x1.e8c3c64630c93p-1,
              0x1.0f91853c36625p-2, 0x1.688646b161e2ap-4},
             {0x1.d0ea633f7f5cdp-5, 0x1.0a6279276ffc2p-2,
              0x1.10d12ea74890dp-1, 0x1.2a9ff05be9102p-2},
             0x1.fffd21c689b3p-1},
            // n_gauss 5
            {{0x1.69c86640fdf1ep+3, 0x1.092eafd8e2c33p+1,
              0x1.2844e02b83665p-1, 0x1.94a12b5026249p-3,
              0x1.30f577ca2b95fp-4},
             {0x1.6abfa9331ce94p-6, 0x1.d1100fa5dd152p-4,
              0x1.53c7667a59562p-2, 0x1.ee26f70bbbdbap-2,
              0x1.8c7015a56fb15p-3},
             0x1.ffff8c7fb41bp-1},
            // n_gauss 6
            {{0x1.6a0681342b8acp+3, 0x1.095c1f14fd264p+1,
              0x1.2877ada2638f6p-1, 0x1.94e6b2ecb1b0ep-3,
              0x1.312a14f0dbb34p-4, 0x1.90b6b70f0de81p-20},
             {0x1.6a7361729960bp-6, 0x1.d0b61edb60311p-4,
              0x1.5397b5035a802p-2, 0x1.ee27f32e24bc6p-2,
              0x1.8cfff0edb4ae8p-3, 0x1.cf733d8f3b517p-14},
             0x1.ffff8cb396698p-1},
        },
        {   // 2s
            // n_gauss 1
            {{0x1.9e93bc259d578p-4},
             {0x1p+0},
             0x1.fe639fe37ad75p-1},
            // n_gauss 2
            {{0x1.41f653d687b8cp+2, 0x1.a3bff9abc41bdp-4},
             {-0x1.3f495cf759774p-5, 0x1.01493e43945dbp+0},
             0x1.fec16ed2cf816p-1},
            // n_gauss 3
            {{0x1.4a711c00d1e7bp+1, 0x1.410c81a1b6ddcp-3,
              0x1.ed0586adc91b2p-5},
             {-0x1.eb1138814225ep-5, 0x1.312c050196111p-1,
              0x1.d52ca9ae4462p-2},
             0x1.fffb800fea22ep-1},
            // n_gauss 4
            {{0x1.3e1233bfee0f2p+1, 0x1.5a937788b3a85p-3,
              0x1.287be8705f59p-4, 0x1.12645b31c5a6ep-5},
             {-0x1.f83d04dd25e4ap-5, 0x1.fc14a8b21da68p-2,
              0x1.01d859b01ff7dp-1, 0x1.d668ccf2e914bp-5},
             0x1.fffc714224643p-1},
            // n_gauss 5
            {{0x1.3e149fd015148p+1, 0x1.5a8602de7f86ep-3,
              0x1.28438613897cbp-4, 0x1.115112e9b21c5p-5,
              0x1.249f995b09efdp-10},
             {-0x1.f839ef50682c3p-5, 0x1.fc54b99f6253ep-2,
              0x1.0202329918e5p-1, 0x1.d1e96b8a879c2p-5,
              -0x1.a3f4fb3d181bdp-15},
             0x1.fffc714afc83dp-1},
            // n_gauss 6
            {{0x1.3e34ab7b60663p+1, 0x1.599ee5121fe4dp-3,
              0x1.236f4ad5a535fp-4, 0x1.90138b3278532p-6,
              0x1.7c906d3ad927bp-6, 0x1.a365228e44044p-13},
             {-0x1.f8125a6469da9p-5, 0x1.007b70a2b8f94p-1,
              0x1.0703af1314966p-1, 0x1.aa51632cf2c55p-3,
              -0x1.535dfce355b55p-3, 0x1.d0bc4065ebdd1p-16},
             0x1.fffc7270b41acp-1},
        },
        {   // 2p
            // n_gauss 1
            {{0x1.686138db93d34p-3},
             {0x1p+0},
             0x1.f3a713c8296bap-1},
            // n_gauss 2
            {{0x1.bac4ab81b03bcp-2, 0x1.b60ad17524492p-4},
             {0x1.cf1df5b00b882p-2, 0x1.57b63e9bcb33fp-1},
             0x1.ff352f7f223d4p-1},
            // n_gauss 3
            {{0x1.d6a665a034bb2p-1, 0x1.e329c6138d1ffp-3,
              0x1.4814e9c779a22p-4},
             {0x1.4c95a04cc7438p-3, 0x1.21e124f5b03bp-1,
              0x1.b071543454332p-2},
             0x1.ffee6602bf52p-1},
            // n_gauss 4
            {{0x1.cc5afa0b83ce5p+0, 0x1.dd74032350a8ap-2,
              0x1.50a24147dc40fp-3, 0x1.0c0a117081d7cp-4},
             {0x1.d4058f7dc32cbp-5, 0x1.249a64459aadep-2,
              0x1.1a83e68f7a498p-1, 0x1.0d8c9da597235p-2},
             0x1.fffe18d678d2ep-1},
            // n_gauss 5
            {{0x1.a902cf6077953p+1, 0x1.ba893991d6592p-1,
              0x1.3b5fd51055787p-2, 0x1.04c65150cb65ap-3,
              0x1.cb43c81449daap-5},
             {0x1.54a13c21fa65cp-6, 0x1.fa0c2e5a9a373p-4,
              0x1.77934ab1bc263p-2, 0x1.ef18d9728c2cap-2,
              0x1.52a0d5c7d9098p-3},
             0x1.ffffc1a342d0ep-1},
            // n_gauss 6
            {{0x1.a90dd8fd52503p+1, 0x1.ba94bdb90f59bp-1,
              0x1.3b68103767981p-2, 0x1.04cd31986508bp-3,
              0x1.cb5019ca0c005p-5, 0x1.d7ca2b67ddf0dp-18},
             {0x1.549266461b46fp-6, 0x1.f9f8effc9c53p-4,
              0x1.778a07b15dceep-2, 0x1.ef1b6a3478daep-2,
              0x1.52b93985fe79fp-3, 0x1.4c3f8b1f3ba8dp-15},
             0x1.ffffc1a9fd1afp-1},
        },
        {   // 3s
            // n_gauss 1
            {{0x1.b1eba79ce50a7p-5},
             {0x1p+0},
             0x1.fbb5553bdfed7p-1},
            // n_gauss 2
            {{0x1.56bcd2c90719cp-1, 0x1.de2d9b4180d99p-5},
             {-0x1.394581ed720d2p-3, 0x1.0d2697e3be077p+0},
             0x1.ffcdea40b46a8p-1},
            // n_gauss 3
            {{0x1.20d81a9e57c77p-1, 0x1.1b9fd5b564f29p-4,
              0x1.0bd711efa400dp-5},
             {-0x1.6d126cbc5540ap-3, 0x1.b8f91f70656dbp-1,
              0x1.cf39ec775807cp-3},
             0x1.fffab5c4febfep-1},
            // n_gauss 4
            {{0x1.21d205d1fdad8p-1, 0x1.173dd9cb512fcp-4,
              0x1.9d240cc429ec7p-6, 0x1.88fde0444726p-6},
             {-0x1.6bac4fa20c168p-3, 0x1.ccc27ed139a16p-1,
              0x1.afc40fb9d3f15p-1, -0x1.50432084aea7dp-1},
             0x1.fffac97de14bdp-1},
            // n_gauss 5
            {{0x1.21d9a0e569ecp-1, 0x1.171f2aef79801p-4,
              0x1.99e25661f134cp-6, 0x1.85e4d196180b3p-6,
              0x1.c881e7f97e4e8p-11},
             {-0x1.6ba295ac0f7dep-3, 0x1.cd4cd3c160a0bp-1,
              0x1.b86428ea3718p-1, -0x1.597b2980d2429p-1,
              0x1.d7a5128b09151p-13},
             0x1.fffaca2409ff6p-1},
            // n_gauss 6
            {{0x1.21f555179e91bp-1, 0x1.172cdce1b20a4p-4,
              0x1.c5a5806f2ad07p-6, 0x1.33918efc330bdp-6,
              0x1.f02aa0d852a97p-12, 0x1.d7f7db34eb8eep-12},
             {-0x1.6b8a4c5265adp-3, 0x1.cc8129a326d33p-1,
              0x1.d476f246c1a4ap-3, -0x1.5828033d1be6fp-5,
              0x1.ac20ff1df786ap-6, -0x1.a7f76b03ec63ep-6},
             0x1.fffac83128485p-1},
        },
        {   // 3p
            // n_gauss 1
            {{0x1.754b2c8601894p-4},
             {0x1p+0},
             0x1.fcbcbc6158172p-1},
            // n_gauss 2
            {{0x1.2ab9ba64f0b83p-3, 0x1.d00315cb655d7p-5},
             {0x1.11e70038be24fp-1, 0x1.0f56fbd43ea3p-1},
             0x1.fff06bd3e13e2p-1},
            // n_gauss 3
            {{0x1.4f594ad1864ddp-3, 0x1.28e42c50b2017p-4,
              0x1.23b24f4cbab07p-5},
             {0x1.94bf22933cb3fp-2, 0x1.1e47a6dffe413p-1,
              0x1.d6c0ccc30e2b7p-4},
             0x1.fff63e7a4cde8p-1},
            // n_gauss 4
            {{0x1.4e675a83f858ep-3, 0x1.2482a5dccfc22p-4,
              0x1.e6c22042a98c2p-6, 0x1.cf04caa051247p-6},
             {0x1.9912e14190308p-2, 0x1.2504ed5a777e3p-1,
              0x1.526a4a8c832c2p-2, -0x1.dd42a53d0b434p-3},
             0x1.fff64033434bep-1},
            // n_gauss 5
            {{0x1.4f2ff0a19e352p-3, 0x1.284181f6b7493p-4,
              0x1.21727559f29dap-5, 0x1.3d63c15fea1c7p-8,
              0x1.2de90f0736125p-8},
             {0x1.9576fc53563b2p-2, 0x1.1f08b5b8d4b6cp-1,
              0x1.ce5f32cfd37cap-4, -0x1.a5b5671e71b3fp-9,
              0x1.9596aeb9d24d7p-9},
             0x1.fff63e9969f27p-1},
            // n_gauss 6
            {{0x1.4e5b8345ff253p-3, 0x1.242610bbba5b8p-4,
              0x1.dc807e643cb11p-6, 0x1.c5433c4e1ac08p-6,
              0x1.ccedba97f240fp-9, 0x1.7f3f70c5fa9e5p-12},
             {0x1.995502205c947p-2, 0x1.25be68bd0606p-1,
              0x1.6b3dd6291a9f3p-2, -0x1.094a7c62174bap-2,
              0x1.faa4c70c59c05p-13, -0x1.0fa9526d506c9p-14},
             0x1.fff64097c22cep-1},
        },
    };

    const int row = shellRow(n, l);
    if (row < 0 || n_gauss < 1 || n_gauss > kStoNgMaxGaussians)
        throw std::out_of_range(
            "stoNgFit: no fit for n = " + std::to_string(n) +
            ", l = " + std::to_string(l) + ", n_gauss = " +
            std::to_string(n_gauss) + " (shells 1s-3p, n_gauss 1-" +
            std::to_string(kStoNgMaxGaussians) + ")");
    return table[row][n_gauss - 1];
}

} // namespace qcc
