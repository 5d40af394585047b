//! Golden pricing: what every spec of `golden_lowering.rs` prices to, frozen
//! bit for bit under both StreamPIM bus configurations at every optimization
//! level.
//!
//! The determinism suites compare pricing paths with each other inside one
//! build, so a change that moves every path alike passes them; the fidelity
//! gate only catches it past its tolerance. Each line here freezes
//! `f64::to_bits` of every time and energy field, the operation and VPC
//! counters, and the cumulative hit/miss counts of one `PriceTable` fed every
//! spec of the configuration in order. For all but the two largest schedules
//! it also freezes a digest of the attribution samples and of the phase-span
//! stream of an instrumented run.

use pim_device::{ExecReport, OptLevel, PriceTable, StreamPim, StreamPimConfig};
use pim_trace::Collector;
use pim_workloads::{DnnKind, Kernel, WorkloadSpec};
use rm_core::{BufferProbe, FnvHasher};
use std::hash::Hasher;

/// One line per configuration and spec: configuration, spec name, time and
/// energy bit patterns, counters, VPC counts, the configuration's table
/// counters after this spec, and the probe and span digests (`-` where
/// skipped).
const GOLDEN: &[&str] = &[
    "paper_default Base 2mm@0.0200 time=40ca25eb851eb84a,40e12b8f5c28f5bd,0,411ae00000000000,40fae00000000000 energy=40c969999999997a,40e3b61eb851eb84,40e185c28f5c28f7,40d646666666665d,40b8200000000000 ops=3424,3424,11008,11008,0,105984,109056,0 vpc=2752,3424 table=265/7 probe=0x6a82abd2b10f31ec spans=0x1092854d73204902",
    "paper_default Base 3mm@0.0200 time=40d4d1547ae147ae,40eb570147ae147a,0,4125db0000000000,4105db0000000000 energy=40d43b6666666660,40ef62e28f5c28fb,40ec7fe147ae147f,40e2b4000000000e,40c3640000000000 ops=5452,5452,17904,17904,0,182400,182400,0 vpc=4476,5452 table=505/11 probe=0x9e2358a6c1e20a8a spans=0xccf3c9d9e1182ad4",
    "paper_default Base gemm@0.0200 time=40c1790a3d70a3d2,40d6f270a3d70a37,0,4112c00000000000,40f2c00000000000 energy=40c0fb3333333316,40da57e147ae148f,40d8733333333347,40d444ccccccccb1,40b0700000000000 ops=2288,2288,7680,7680,0,95680,99360,0 vpc=1920,2288 table=749/15 probe=0x585f40ad12b05ea0 spans=0x7160a19eb85e143a",
    "paper_default Base syrk@0.0200 time=40c89eeb851eb84a,40e02acf5c28f5bd,0,411b6c0000000000,40fb6c0000000000 energy=40c7ed9999999977,40e28f5eb851eb99,40e1e10a3d70a3ea,40d721c28f5c2901,40b7900000000000 ops=3224,3224,11232,11232,0,108160,113568,0 vpc=2808,3224 table=1068/16 probe=0x84242dc14849198f spans=0x41a79120e0f742ea",
    "paper_default Base syr2k@0.0200 time=40d89eeb851eb84a,40f02acf5c28f5bd,0,412b6c0000000000,410b6c0000000000 energy=40d7ed9999999967,40f28f5eb851eb34,40f1e10a3d70a385,40e721c28f5c290d,40c7900000000000 ops=6448,6448,22464,22464,0,216320,227136,0 vpc=5616,6448 table=1708/16 probe=0xec16398abb796f24 spans=0x4e8f593a89b5f2a1",
    "paper_default Base atax@0.0200 time=40838ccccccccccc,4099acccccccccca,0,40c9000000000000,40a9000000000000 energy=4082ffffffffffff,409d799999999989,40904cccccccccc8,4084fffffffffff7,406e000000000000 ops=160,160,320,320,0,3200,3200,0 vpc=80,160 table=1948/16 probe=0xbc7a67955883a76f spans=0xf703609882a11ec5",
    "paper_default Base bicg@0.0200 time=40819851eb851ebd,40971b851eb851f2,0,40c6800000000000,40a6800000000000 energy=408119999999999f,409a870a3d70a3c9,408d570a3d70a3cf,4081028f5c28f5c1,406b000000000000 ops=144,144,288,288,0,2592,2592,0 vpc=72,144 table=2164/16 probe=0x0a4add9de89c1811 spans=0xe90ce1953b5f8bf3",
    "paper_default Base gesu@0.0200 time=4084870a3d70a3d3,409af570a3d70a37,0,40d1800000000000,40b1800000000000 energy=4083f3333333332f,409ef2e147ae1469,4086d1eb851eb848,407535c28f5c28f9,4071800000000000 ops=168,168,224,224,0,1568,1624,0 vpc=112,168 table=2441/19 probe=0x4007379ba995decc spans=0x9044f62f363eac45",
    "paper_default Base mvt@0.0200 time=40938ccccccccccc,40a9acccccccccca,0,40d6a80000000000,40b9000000000000 energy=4092ffffffffffe0,40ad799999999985,4098733333333328,4085133333333317,407e000000000000 ops=320,320,480,480,0,3280,3200,0 vpc=160,320 table=2920/20 probe=0x118f0c08817a4150 spans=0xf82e2809d2499cd0",
    "paper_default Base mlp time=413a4d886aa56e1b,415145926037ec79,0,41a4113000000000,419f5c2000000000 energy=413a7efffffffeb6,41548d4999999abf,41929b5e8f5c2866,4192a68f5c28f59e,4128340000000000 ops=456960,456960,23939584,23939584,0,372506624,372506624,0 vpc=394496,398592 table=9112/24 probe=0xc31c705b3da34354 spans=0x99d43e3c0cc2e5c0",
    "paper_default Base bert time=418cbc001e80d8b2,41a2de509c36d113,0,41f3560000000000,41ee3c0000000000 energy=418c96cccccc9fa2,41a62ce28f5c50d9,41e1a65c28f5c8f1,41e17b851eb84281,417b480000000000 ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688 table=251600/32 probe=- spans=-",
    "paper_default Base matmul_24x16x8 time=408f47ae147ae14d,40a48a3d70a3d70d,0,40de000000000000,40be000000000000 energy=408e666666666662,40a7947ae147ae16,40938f5c28f5c28f,408428f5c28f5c29,407c000000000000 ops=256,256,384,384,0,3072,3072,0 vpc=192,256 table=251654/34 probe=0xba2c7baed584a0cd spans=0xda747c0e98d9c0f3",
    "paper_default Base matmul_8192x128x128 time=414f5529e8dcc682,416493181524f100,0,41a4000000000000,4194000000000000 energy=414e75999999952b,4167a0451eb84e80,41804ccccccccec8,417ae147ae147e1a,4140020000000000 ops=1050624,1050624,10485760,10485760,0,134217728,134217728,0 vpc=1048576,1049600 table=268046/34 probe=- spans=-",
    "paper_default Distribute 2mm@0.0200 time=40af091eb851eb88,40c46128f5c28f5e,0,40f034f5c28f5c29,40d034f5c28f5c28 energy=40c969999999997a,40e3b61eb851eb84,40e185c28f5c28f7,40d646666666665d,40b8200000000000 ops=3424,3424,11008,11008,0,105984,109056,0 vpc=2752,3424 table=265/7 probe=0x3b2cf4b88176e6c8 spans=0x736ebe91d435f79d",
    "paper_default Distribute 3mm@0.0200 time=40b7a4ae147ae14c,40cf0cfae147ae1a,0,40f9ada1cac08312,40d9ada1cac08312 energy=40d43b6666666660,40ef62e28f5c28fb,40ec7fe147ae147f,40e2b4000000000e,40c3640000000000 ops=5452,5452,17904,17904,0,182400,182400,0 vpc=4476,5452 table=505/11 probe=0xe5eda44d03d2dfca spans=0x0f6024118c959f86",
    "paper_default Distribute gemm@0.0200 time=40a2928f5c28f5c5,40b86428f5c28f5e,0,40e5b010624dd2f2,40c5b010624dd2f1 energy=40c0fb3333333316,40da57e147ae148f,40d8733333333347,40d444ccccccccb1,40b0700000000000 ops=2288,2288,7680,7680,0,95680,99360,0 vpc=1920,2288 table=749/15 probe=0x2e1430a6c176bf5a spans=0xf98646260eccfe2a",
    "paper_default Distribute syrk@0.0200 time=40a6aa70a3d70a45,40bdc4570a3d70ae,0,40ee7989374bc6a6,40ce7989374bc6a6 energy=40c7ed9999999977,40e28f5eb851eb99,40e1e10a3d70a3ea,40d721c28f5c2901,40b7900000000000 ops=3224,3224,11232,11232,0,108160,113568,0 vpc=2808,3224 table=1068/16 probe=0x5f66c42c3777054a spans=0xf98896bc4f72bc29",
    "paper_default Distribute syr2k@0.0200 time=40b83d2b851eb85c,40cfd53eb851eb92,0,40fe7989374bc6a6,40de7989374bc6a6 energy=40d7ed9999999967,40f28f5eb851eb34,40f1e10a3d70a385,40e721c28f5c290d,40c7900000000000 ops=6448,6448,22464,22464,0,216320,227136,0 vpc=5616,6448 table=1708/16 probe=0xd930739c8765e623 spans=0x135bfd5040da3e19",
    "paper_default Distribute atax@0.0200 time=40538ccccccccccc,4069acccccccccca,0,409ced916872b020,407ced916872b020 energy=4082ffffffffffff,409d799999999989,40904cccccccccc8,4084fffffffffff7,406e000000000000 ops=160,160,320,320,0,3200,3200,0 vpc=80,160 table=1948/16 probe=0x24d69a07b8f7fc2f spans=0xde1c50db22773a30",
    "paper_default Distribute bicg@0.0200 time=40538ccccccccccc,4069acccccccccca,0,409a872b020c49ba,407a872b020c49ba energy=408119999999999f,409a870a3d70a3c9,408d570a3d70a3cf,4081028f5c28f5c1,406b000000000000 ops=144,144,288,288,0,2592,2592,0 vpc=72,144 table=2164/16 probe=0x307464662ab40894 spans=0x27872d3a3c40e142",
    "paper_default Distribute gesu@0.0200 time=405775c28f5c28f9,406ecf5c28f5c293,0,40a5989374bc6a7f,4085989374bc6a7e energy=4083f3333333332f,409ef2e147ae1469,4086d1eb851eb848,407535c28f5c28f9,4071800000000000 ops=168,168,224,224,0,1568,1624,0 vpc=112,168 table=2441/19 probe=0x52e38b7b06df6d3f spans=0x667d0cf35435c699",
    "paper_default Distribute mvt@0.0200 time=40638cccccccccc3,4079acccccccccbf,0,40aa413a654b0048,408cf8870eab0923 energy=4092ffffffffffe0,40ad799999999985,4098733333333328,4085133333333317,407e000000000000 ops=320,320,480,480,0,3280,3200,0 vpc=160,320 table=2920/20 probe=0xf490b7be4c9f92c4 spans=0x38af919bca4e48bd",
    "paper_default Distribute mlp time=4116d3976d251327,412dfa625de857ad,0,417397ed590798b0,416e9ea02f387cb6 energy=413a7efffffffeb6,41548d4999999abf,41929b5e8f5c2866,4192a68f5c28f59e,4128340000000000 ops=456960,456960,23939584,23939584,0,372506624,372506624,0 vpc=394496,398592 table=9112/24 probe=0xc6989876c03be413 spans=0xfd34e6aaeb4e32ed",
    "paper_default Distribute bert time=4166905265888d9f,417da20a006eea70,0,41c2f57de9032286,41bda518a8db02c8 energy=418c96cccccc9fa2,41a62ce28f5c50d9,41e1a65c28f5c8f1,41e17b851eb84281,417b480000000000 ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688 table=251600/32 probe=- spans=-",
    "paper_default Distribute matmul_24x16x8 time=40758147ae147ae3,408c3e147ae147af,0,40b353f7ced91687,409353f7ced91687 energy=408e666666666662,40a7947ae147ae16,40938f5c28f5c28f,408428f5c28f5c29,407c000000000000 ops=256,256,384,384,0,3072,3072,0 vpc=192,256 table=251654/34 probe=0x7c9c00b687c4f257 spans=0xcaf3a8ff21193878",
    "paper_default Distribute matmul_8192x128x128 time=411fb38cb78a436e,4134d11294accbb5,0,41737a0a3d70a3d7,41637a0a3d70a3d7 energy=414e75999999952b,4167a0451eb84e80,41804ccccccccec8,417ae147ae147e1a,4140020000000000 ops=1050624,1050624,10485760,10485760,0,134217728,134217728,0 vpc=1048576,1049600 table=268046/34 probe=- spans=-",
    "paper_default Unblock 2mm@0.0200 time=0,0,0,40ce100000000000,40ae100000000000 energy=40c969999999997a,40e3b61eb851eb84,40e185c28f5c28f7,40d646666666665d,40b8200000000000 ops=3424,3424,11008,11008,0,105984,109056,0 vpc=2752,3424 table=265/7 probe=0x3b2cf4b88176e6c8 spans=0x38efdd2dff3e1ec5",
    "paper_default Unblock 3mm@0.0200 time=0,0,0,40d559999999999a,40b559999999999a energy=40d43b6666666660,40ef62e28f5c28fb,40ec7fe147ae147f,40e2b4000000000e,40c3640000000000 ops=5452,5452,17904,17904,0,182400,182400,0 vpc=4476,5452 table=505/11 probe=0xe5eda44d03d2dfca spans=0x31ac1173874c444b",
    "paper_default Unblock gemm@0.0200 time=0,0,0,40c0c33333333333,40a0c33333333333 energy=40c0fb3333333316,40da57e147ae148f,40d8733333333347,40d444ccccccccb1,40b0700000000000 ops=2288,2288,7680,7680,0,95680,99360,0 vpc=1920,2288 table=749/15 probe=0x2e1430a6c176bf5a spans=0xb1c4d11ba3a4e65f",
    "paper_default Unblock syrk@0.0200 time=0,0,0,40c2dccccccccccd,40a2dccccccccccc energy=40c7ed9999999977,40e28f5eb851eb99,40e1e10a3d70a3ea,40d721c28f5c2901,40b7900000000000 ops=3224,3224,11232,11232,0,108160,113568,0 vpc=2808,3224 table=1068/16 probe=0x5f66c42c3777054a spans=0xbccbde23dd459dc3",
    "paper_default Unblock syr2k@0.0200 time=0,0,0,40d2dccccccccccd,40b2dccccccccccc energy=40d7ed9999999967,40f28f5eb851eb34,40f1e10a3d70a385,40e721c28f5c290d,40c7900000000000 ops=6448,6448,22464,22464,0,216320,227136,0 vpc=5616,6448 table=1708/16 probe=0xd930739c8765e623 spans=0x6309d4fe7f5abb34",
    "paper_default Unblock atax@0.0200 time=0,0,0,4076666666666667,4056666666666667 energy=4082ffffffffffff,409d799999999989,40904cccccccccc8,4084fffffffffff7,406e000000000000 ops=160,160,320,320,0,3200,3200,0 vpc=80,160 table=1948/16 probe=0x24d69a07b8f7fc2f spans=0xa2fde85ca0b8eddf",
    "paper_default Unblock bicg@0.0200 time=0,0,0,4076666666666666,4056666666666666 energy=408119999999999f,409a870a3d70a3c9,408d570a3d70a3cf,4081028f5c28f5c1,406b000000000000 ops=144,144,288,288,0,2592,2592,0 vpc=72,144 table=2164/16 probe=0x307464662ab40894 spans=0xeb1d06f7c9290c4b",
    "paper_default Unblock gesu@0.0200 time=0,0,0,4085cccccccccccd,4065cccccccccccd energy=4083f3333333332f,409ef2e147ae1469,4086d1eb851eb848,407535c28f5c28f9,4071800000000000 ops=168,168,224,224,0,1568,1624,0 vpc=112,168 table=2441/19 probe=0x52e38b7b06df6d3f spans=0x1e571760d8d19e0d",
    "paper_default Unblock mvt@0.0200 time=0,0,0,408479f22983759f,4066983759f22983 energy=4092ffffffffffe0,40ad799999999985,4098733333333328,4085133333333317,407e000000000000 ops=320,320,480,480,0,3280,3200,0 vpc=160,320 table=2920/20 probe=0xf490b7be4c9f92c4 spans=0x0155ac86f6acb4eb",
    "paper_default Unblock mlp time=4106256c3c23e052,411d15a60ae3d277,0,4117ed9c339cd4bf,4112b263cc632b41 energy=413a7efffffffeb6,41548d4999999abf,41929b5e8f5c2866,4192a68f5c28f59e,4128340000000000 ops=456960,456960,23939584,23939584,0,372506624,372506624,0 vpc=394496,398592 table=9112/24 probe=0xc6989876c03be413 spans=0x09f836474a456fdd",
    "paper_default Unblock bert time=4150cb90ef2c8e72,41660e9deed01f3f,0,416cd5397829cbc1,41668ac687d6343f energy=418c96cccccc9fa2,41a62ce28f5c50d9,41e1a65c28f5c8f1,41e17b851eb84281,417b480000000000 ops=15777792,15777792,726663168,726663168,0,11173625856,11173625856,0 vpc=14155776,14450688 table=251600/32 probe=- spans=-",
    "paper_default Unblock matmul_24x16x8 time=0,0,0,4096666666666667,4076666666666667 energy=408e666666666662,40a7947ae147ae16,40938f5c28f5c28f,408428f5c28f5c29,407c000000000000 ops=256,256,384,384,0,3072,3072,0 vpc=192,256 table=251654/34 probe=0x7c9c00b687c4f257 spans=0xe9a2995471f43b1f",
    "paper_default Unblock matmul_8192x128x128 time=411760a0936ed26e,412eb39b3b674fef,0,4114200000000000,4104200000000000 energy=414e75999999952b,4167a0451eb84e80,41804ccccccccec8,417ae147ae147e1a,4140020000000000 ops=1050624,1050624,10485760,10485760,0,134217728,134217728,0 vpc=1048576,1049600 table=268046/34 probe=- spans=-",
    "electrical_bus Base 2mm@0.0200 time=40fd1f70d54adb7a,41131f9cc06fd877,0,4120cc0000000004,0 energy=40e090ccccccccde,40fea05999999991,0,40d646666666665d,40b8200000000000 ops=30944,30944,0,0,0,105984,109056,0 vpc=2752,3424 table=265/7 probe=0x47036b12b67ec3cc spans=0xa6f0692acf030a26",
    "electrical_bus Base 3mm@0.0200 time=410786ca7af011cc,411ee5ba0a360b96,0,412b51c000000005,0 energy=40eab9e666666641,4108a7559999997e,0,40e2b4000000000e,40c3640000000000 ops=50212,50212,0,0,0,182400,182400,0 vpc=4476,5452 table=505/11 probe=0x08c3106400a2d9ee spans=0x8b91c1bad614888a",
    "electrical_bus Base gemm@0.0200 time=40f40c35c42d774c,410a5420a307fc96,0,4117700000000012,0 energy=40d6bd9999999966,40f4ee8e147ae13d,0,40d444ccccccccb1,40b0700000000000 ops=21488,21488,0,0,0,95680,99360,0 vpc=1920,2288 table=749/15 probe=0xbb36bf3a16be7b88 spans=0x8421f74c5502f23c",
    "electrical_bus Base syrk@0.0200 time=40fcfdec7ecef758,4113099a79e5dbb5,0,412123800000000d,0 energy=40e066ffffffffec,40fe15d147ae1485,0,40d721c28f5c2901,40b7900000000000 ops=31304,31304,0,0,0,108160,113568,0 vpc=2808,3224 table=1068/16 probe=0x762fb45507845a0b spans=0x96e7324ec06e7237",
    "electrical_bus Base syr2k@0.0200 time=410cfdec7ecef754,4123099a79e5dbb2,0,4131238000000010,0 energy=40f067000000005a,410e15d147ae1413,0,40e721c28f5c290d,40c7900000000000 ops=62608,62608,0,0,0,216320,227136,0 vpc=5616,6448 table=1708/16 probe=0x55db9fca116bd0e4 spans=0x3400354606acc531",
    "electrical_bus Base atax@0.0200 time=40b02422f3a6be36,40c532bb52f96db2,0,40cf400000000008,0 energy=4092ffffffffffed,40b26bfffffffff2,0,4084fffffffffff7,406e000000000000 ops=960,960,0,0,0,3200,3200,0 vpc=80,160 table=1948/16 probe=0x6f4f3e2ee8e389df spans=0x84b7e174d209d9fb",
    "electrical_bus Base bicg@0.0200 time=40ad0dd8835f5662,40c3140efde07c52,0,40cc200000000005,0 energy=409119999999998f,40b094666666665a,0,4081028f5c28f5c1,406b000000000000 ops=864,864,0,0,0,2592,2592,0 vpc=72,144 table=2164/16 probe=0x6e2ce07df5545b79 spans=0xf423f1504b1fff7b",
    "electrical_bus Base gesu@0.0200 time=40abff773625770d,40c262837a24b6c4,0,40d5e00000000000,0 energy=40909fffffffffe8,40b0c38f5c28f5b6,0,407535c28f5c28f9,4071800000000000 ops=728,728,0,0,0,1568,1624,0 vpc=112,168 table=2441/19 probe=0xab0672fb2b3e4298 spans=0xfc4510164f6e56bd",
    "electrical_bus Base mvt@0.0200 time=40bbdb87faccf1cf,40d24aeace199061,0,40dce7fffffffffe,0 energy=40a09fffffffffe6,40c094666666668e,0,4085133333333317,407e000000000000 ops=1520,1520,0,0,0,3280,3200,0 vpc=160,320 table=2920/20 probe=0xa255be661d9cd498 spans=0x119f1eed96a2dd3c",
    "electrical_bus Base mlp time=41a4dbdc5bdbc691,41bb64d5c68cfd40,0,41b1df9ffffffffa,0 energy=4186845ccccccd0a,41a1c961828f5c59,0,4192a68f5c28f59e,4128340000000000 ops=60305920,60305920,0,0,0,372506624,372506624,0 vpc=394496,398592 table=9112/24 probe=0xff42dc3dfdd6cae8 spans=0x06bd132080f8fccd",
    "electrical_bus Base bert time=41f3e075ffabd7e1,420a1aabfd9aa4ad,0,42013a00000013ae,0 energy=41d5778333334ffc,41f0ff56c7ae0968,0,41e17b851eb84281,417b480000000000 ops=1832435712,1832435712,0,0,0,11173625856,11173625856,0 vpc=14155776,14450688 table=251600/32 probe=- spans=-",
    "electrical_bus Base matmul_24x16x8 time=40b69fdfa5e05ec2,40cdb6769376370c,0,40e2c00000000004,0 energy=409a9999999999a0,40ba870a3d70a3ce,0,408428f5c28f5c29,407c000000000000 ops=1216,1216,0,0,0,3072,3072,0 vpc=192,256 table=251654/34 probe=0xfad44363600b8c9d spans=0x142c5f2d5f211038",
    "electrical_bus Base matmul_8192x128x128 time=4194ca42631b66e4,41ab4db8162062c9,0,41ae0000000005b6,0 energy=4176ceb3333332a6,41932ad9c28f5b76,0,417ae147ae147e1a,4140020000000000 ops=27265024,27265024,0,0,0,134217728,134217728,0 vpc=1048576,1049600 table=268046/34 probe=- spans=-",
    "electrical_bus Distribute 2mm@0.0200 time=40d6aa86b86d21f4,40edc47409c6f9d8,0,40f3d20000000006,0 energy=40e090ccccccccde,40fea05999999991,0,40d646666666665d,40b8200000000000 ops=30944,30944,0,0,0,105984,109056,0 vpc=2752,3424 table=265/7 probe=0xb39d2102b2bfe044 spans=0xe3f4a9b2c4b34310",
    "electrical_bus Distribute 3mm@0.0200 time=40e1a4e7eac48f84,40f72c0c90f70332,0,40ff780000000005,0 energy=40eab9e666666641,4108a7559999997e,0,40e2b4000000000e,40c3640000000000 ops=50212,50212,0,0,0,182400,182400,0 vpc=4476,5452 table=505/11 probe=0xa20710df9bc9ca88 spans=0x7c1abc7305337b87",
    "electrical_bus Distribute gemm@0.0200 time=40ccd9cbb03ff940,40e2f1e1402ca08f,0,40eaa00000000014,0 energy=40d6bd9999999966,40f4ee8e147ae13d,0,40d444ccccccccb1,40b0700000000000 ops=21488,21488,0,0,0,95680,99360,0 vpc=1920,2288 table=749/15 probe=0x0b54605acfad83f6 spans=0x986515d72e8430e1",
    "electrical_bus Distribute syrk@0.0200 time=40d31ab11fa45c43,40e916f120b771f6,0,40f2c6000000000f,0 energy=40e066ffffffffec,40fe15d147ae1485,0,40d721c28f5c2901,40b7900000000000 ops=31304,31304,0,0,0,108160,113568,0 vpc=2808,3224 table=1068/16 probe=0x8ef9054b00eca10a spans=0x843a3120f6b3f5b3",
    "electrical_bus Distribute syr2k@0.0200 time=40e3a82ef76edd2a,40f9d0c33f0fa220,0,4102c60000000011,0 energy=40f067000000005a,410e15d147ae1413,0,40e721c28f5c290d,40c7900000000000 ops=62608,62608,0,0,0,216320,227136,0 vpc=5616,6448 table=1708/16 probe=0x4a0d4d3dd03649d7 spans=0x6e7a662949881cb1",
    "electrical_bus Distribute atax@0.0200 time=408166f8fc67f1de,4096dab64c23ae96,0,40a1c00000000004,0 energy=4092ffffffffffed,40b26bfffffffff2,0,4084fffffffffff7,406e000000000000 ops=960,960,0,0,0,3200,3200,0 vpc=80,160 table=1948/16 probe=0xb7238d95e44bf661 spans=0x4e42ec24a2638aa9",
    "electrical_bus Distribute bicg@0.0200 time=408083169bdf9129,4095af6e8d33084c,0,40a0400000000003,0 energy=409119999999998f,40b094666666665a,0,4081028f5c28f5c1,406b000000000000 ops=864,864,0,0,0,2592,2592,0 vpc=72,144 table=2164/16 probe=0x124b74b76327b7be spans=0x68055b71ccd86906",
    "electrical_bus Distribute gesu@0.0200 time=408076d5f292080c,40959f572d37994c,0,40aa7fffffffffff,0 energy=40909fffffffffe8,40b0c38f5c28f5b6,0,407535c28f5c28f9,4071800000000000 ops=728,728,0,0,0,1568,1624,0 vpc=112,168 table=2441/19 probe=0xbb2633d12c27f2df spans=0xf29690b3e357aef9",
    "electrical_bus Distribute mvt@0.0200 time=408dc72681a65082,40a38dbd21bcec84,0,40b06b3333333333,0 energy=40a09fffffffffe6,40c094666666668e,0,4085133333333317,407e000000000000 ops=1520,1520,0,0,0,3280,3200,0 vpc=160,320 table=2920/20 probe=0x1b46c58b8580b104 spans=0x67ba47e89a03945f",
    "electrical_bus Distribute mlp time=4174e54745036b73,418b713405d8f394,0,4181728a5ab7c489,0 energy=4186845ccccccd0a,41a1c961828f5c59,0,4192a68f5c28f59e,4128340000000000 ops=60305920,60305920,0,0,0,372506624,372506624,0 vpc=394496,398592 table=9112/24 probe=0x13b65e3c9b684e09 spans=0xe2ad69db471fb43b",
    "electrical_bus Distribute bert time=41c3e527327b5a22,41da20d5860ffe3a,0,41d0dc30c05695ab,0 energy=41d5778333334ffc,41f0ff56c7ae0968,0,41e17b851eb84281,417b480000000000 ops=1832435712,1832435712,0,0,0,11173625856,11173625856,0 vpc=14155776,14450688 table=251600/32 probe=- spans=-",
    "electrical_bus Distribute matmul_24x16x8 time=409666e53f20a43a,40ad6ba2442c8140,0,40b7800000000004,0 energy=409a9999999999a0,40ba870a3d70a3ce,0,408428f5c28f5c29,407c000000000000 ops=1216,1216,0,0,0,3072,3072,0 vpc=192,256 table=251654/34 probe=0x6124211e7ff5e4f5 spans=0xde527d851342666d",
    "electrical_bus Distribute matmul_8192x128x128 time=41645a30eeacc75a,417aba8a3f581b69,0,417d366666666bf6,0 energy=4176ceb3333332a6,41932ad9c28f5b76,0,417ae147ae147e1a,4140020000000000 ops=27265024,27265024,0,0,0,134217728,134217728,0 vpc=1048576,1049600 table=268046/34 probe=- spans=-",
    "electrical_bus Unblock 2mm@0.0200 time=40b916bc18c8b2b8,40d0797c7eec8b9e,0,40d0cc0000000004,0 energy=40e090ccccccccde,40fea05999999991,0,40d646666666665d,40b8200000000000 ops=30944,30944,0,0,0,105984,109056,0 vpc=2752,3424 table=265/7 probe=0xb39d2102b2bfe044 spans=0x4f28e6c1e777a0b7",
    "electrical_bus Unblock 3mm@0.0200 time=40c415f1ee4b042c,40da60e99836a6de,0,40d7d40000000006,0 energy=40eab9e666666641,4108a7559999997e,0,40e2b4000000000e,40c3640000000000 ops=50212,50212,0,0,0,182400,182400,0 vpc=4476,5452 table=505/11 probe=0xa20710df9bc9ca88 spans=0xee04a4bbceba3bd4",
    "electrical_bus Unblock gemm@0.0200 time=40af852e6046b64f,40c4b29fed0d0ab2,0,40c2c0000000000c,0 energy=40d6bd9999999966,40f4ee8e147ae13d,0,40d444ccccccccb1,40b0700000000000 ops=21488,21488,0,0,0,95680,99360,0 vpc=1920,2288 table=749/15 probe=0x0b54605acfad83f6 spans=0xdf66af66e9b01ae4",
    "electrical_bus Unblock syrk@0.0200 time=40b4225585175339,40ca712ed70defea,0,40c5180000000011,0 energy=40e066ffffffffec,40fe15d147ae1485,0,40d721c28f5c2901,40b7900000000000 ops=31304,31304,0,0,0,108160,113568,0 vpc=2808,3224 table=1068/16 probe=0x8ef9054b00eca10a spans=0x601b7a46fc3f8519",
    "electrical_bus Unblock syr2k@0.0200 time=40c66e4795ee7757,40dd7554d8dfce7c,0,40d5180000000014,0 energy=40f067000000005a,410e15d147ae1413,0,40e721c28f5c290d,40c7900000000000 ops=62608,62608,0,0,0,216320,227136,0 vpc=5616,6448 table=1708/16 probe=0x4a0d4d3dd03649d7 spans=0x0ae30423e3bca704",
    "electrical_bus Unblock atax@0.0200 time=405b5fc76248a5c6,4071f9a7c1077021,0,4079000000000006,0 energy=4092ffffffffffed,40b26bfffffffff2,0,4084fffffffffff7,406e000000000000 ops=960,960,0,0,0,3200,3200,0 vpc=80,160 table=1948/16 probe=0xb7238d95e44bf661 spans=0x03f1afdfc1e79447",
    "electrical_bus Unblock bicg@0.0200 time=4055e11af70088c6,406cbbed65c769a4,0,4079000000000005,0 energy=409119999999998f,40b094666666665a,0,4081028f5c28f5c1,406b000000000000 ops=864,864,0,0,0,2592,2592,0 vpc=72,144 table=2164/16 probe=0x124b74b76327b7be spans=0xb2d96b1b2ff67ddd",
    "electrical_bus Unblock gesu@0.0200 time=404f06bcd3806210,40645f9879346270,0,4088fffffffffffe,0 energy=40909fffffffffe8,40b0c38f5c28f5b6,0,407535c28f5c28f9,4071800000000000 ops=728,728,0,0,0,1568,1624,0 vpc=112,168 table=2441/19 probe=0xbb2633d12c27f2df spans=0xc943a8d103e0aefc",
    "electrical_bus Unblock mvt@0.0200 time=406d7133582c7bec,4083554cc38e7a9e,0,40871fffffffffff,0 energy=40a09fffffffffe6,40c094666666668e,0,4085133333333317,407e000000000000 ops=1520,1520,0,0,0,3280,3200,0 vpc=160,320 table=2920/20 probe=0x1b46c58b8580b104 spans=0x34d0df12e494615c",
    "electrical_bus Unblock mlp time=412dc38720601258,41438b5c2b076ee9,0,4125017cae637989,0 energy=4186845ccccccd0a,41a1c961828f5c59,0,4192a68f5c28f59e,4128340000000000 ops=60305920,60305920,0,0,0,372506624,372506624,0 vpc=394496,398592 table=9112/24 probe=0x13b65e3c9b684e09 spans=0x379d8effc63547f7",
    "electrical_bus Unblock bert time=417bb5d801209aa4,4192322b773f260a,0,41777693bb7c6704,0 energy=41d5778333334ffc,41f0ff56c7ae0968,0,41e17b851eb84281,417b480000000000 ops=1832435712,1832435712,0,0,0,11173625856,11173625856,0 vpc=14155776,14450688 table=251600/32 probe=- spans=-",
    "electrical_bus Unblock matmul_24x16x8 time=40806f39e6c86164,40959558cf2b2b72,0,4099000000000004,0 energy=409a9999999999a0,40ba870a3d70a3ce,0,408428f5c28f5c29,407c000000000000 ops=1216,1216,0,0,0,3072,3072,0 vpc=192,256 table=251654/34 probe=0x6124211e7ff5e4f5 spans=0x8dab0f076ab59d8c",
    "electrical_bus Unblock matmul_8192x128x128 time=41343ce078a07d0e,414a940aa4f76f32,0,411e0000000005c6,0 energy=4176ceb3333332a6,41932ad9c28f5b76,0,417ae147ae147e1a,4140020000000000 ops=27265024,27265024,0,0,0,134217728,134217728,0 vpc=1048576,1049600 table=268046/34 probe=- spans=-",
];

fn specs() -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = Kernel::ALL
        .iter()
        .map(|&kernel| WorkloadSpec::polybench(kernel, 0.02))
        .collect();
    specs.push(WorkloadSpec::dnn(DnnKind::Mlp));
    specs.push(WorkloadSpec::dnn(DnnKind::Bert));
    specs.push(WorkloadSpec::MatMul { m: 24, k: 16, n: 8 });
    specs.push(WorkloadSpec::MatMul {
        m: 8192,
        k: 128,
        n: 128,
    });
    specs
}

fn fnv(text: &str) -> u64 {
    let mut h = FnvHasher::new();
    h.write(text.as_bytes());
    h.finish()
}

/// The report as bit patterns and integers, so a last-ulp move shows.
fn report_line(r: &ExecReport) -> String {
    let t = &r.time;
    let e = &r.energy;
    let c = &r.counters;
    let time = [
        t.read_ns,
        t.write_ns,
        t.shift_ns,
        t.process_ns,
        t.overlapped_ns,
    ]
    .map(|v| format!("{:x}", v.to_bits()))
    .join(",");
    let energy = [e.read_pj, e.write_pj, e.shift_pj, e.compute_pj, e.other_pj]
        .map(|v| format!("{:x}", v.to_bits()))
        .join(",");
    format!(
        "time={time} energy={energy} ops={},{},{},{},{},{},{},{} vpc={},{}",
        c.reads,
        c.writes,
        c.shifts,
        c.shift_distance,
        c.transverse_reads,
        c.pim_adds,
        c.pim_muls,
        c.gate_ops,
        r.vpc.pim,
        r.vpc.moves
    )
}

/// Digests of the probe records and span stream of one instrumented run.
/// `Debug` renders every `f64` in shortest round-trip form, so the digests
/// move with any bit of any record.
fn instrumented_digests(device: &StreamPim, schedule: &pim_device::schedule::Schedule) -> String {
    let sink = Collector::new();
    let probe = BufferProbe::new();
    let report = device.execute_instrumented(schedule, &sink, &probe, None);
    assert_eq!(
        report,
        device.execute(schedule),
        "instruments perturb pricing"
    );
    digests(&sink, &probe)
}

/// The probe and span digests of an instrumented run's records.
fn digests(sink: &Collector, probe: &BufferProbe) -> String {
    let records: String = probe
        .take()
        .iter()
        .map(|(path, sample)| format!("{path} {sample:?}\n"))
        .collect();
    let spans: String = sink.spans().iter().map(|s| format!("{s:?}\n")).collect();
    format!(
        "probe=0x{:016x} spans=0x{:016x}",
        fnv(&records),
        fnv(&spans)
    )
}

#[test]
fn spec_reports_match_the_frozen_pricing() {
    let mut actual = Vec::new();
    for (bus, base) in [
        ("paper_default", StreamPimConfig::paper_default()),
        ("electrical_bus", StreamPimConfig::electrical_bus()),
    ] {
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let device = StreamPim::new(base.clone().with_opt(opt)).expect("valid config");
            let mut table = PriceTable::new();
            for spec in specs() {
                let schedule = spec
                    .shape_task()
                    .lower(&device)
                    .expect("every spec has operations");
                let report = device.execute(&schedule);
                let (repriced, _) = device.execute_repriced(&schedule, &mut table);
                assert_eq!(report, repriced, "memo perturbs pricing");
                // BERT and the 8192-row MatMul: their per-command probe
                // records would dominate the debug-build test time.
                let large = schedule.counts().total() > 1_000_000;
                let digests = if large {
                    "probe=- spans=-".to_string()
                } else {
                    instrumented_digests(&device, &schedule)
                };
                actual.push(format!(
                    "{bus} {opt:?} {} {} table={}/{} {digests}",
                    spec.name(),
                    report_line(&report),
                    table.hits(),
                    table.misses()
                ));
            }
        }
    }
    assert_eq!(actual, GOLDEN, "priced:\n{}", actual.join("\n"));
}

/// The streamed pass prices every spec bit for bit as the lowered schedule
/// does: `ShapeTask::price_instrumented` against `execute_instrumented` of
/// `ShapeTask::lower`'s schedule, with the probe and span digests of
/// [`instrumented_digests`]. BERT and the 8192-row MatMul compare
/// unprobed reports only, as the frozen lines do.
#[test]
fn streamed_pricing_matches_the_lowered_schedule() {
    for base in [
        StreamPimConfig::paper_default(),
        StreamPimConfig::electrical_bus(),
    ] {
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let device = StreamPim::new(base.clone().with_opt(opt)).expect("valid config");
            for spec in specs() {
                let task = spec.shape_task();
                let schedule = task.lower(&device).expect("every spec has operations");
                let streamed = task
                    .price_instrumented(&device, &pim_trace::NullSink, &rm_core::NullProbe)
                    .expect("every spec has operations");
                let what = format!("{opt:?} {}", spec.name());
                assert_eq!(
                    report_line(&streamed),
                    report_line(&device.execute(&schedule)),
                    "{what}"
                );
                if schedule.counts().total() > 1_000_000 {
                    continue;
                }
                let sink = Collector::new();
                let probe = BufferProbe::new();
                let report = task
                    .price_instrumented(&device, &sink, &probe)
                    .expect("every spec has operations");
                assert_eq!(report_line(&report), report_line(&streamed), "{what}");
                assert_eq!(
                    digests(&sink, &probe),
                    instrumented_digests(&device, &schedule),
                    "{what}"
                );
            }
        }
    }
}
