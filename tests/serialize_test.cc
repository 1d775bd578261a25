#include "nn/serialize.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/fileio.h"
#include "comparator/comparator.h"
#include "core/autocts.h"
#include "data/synthetic.h"
#include "nn/layers.h"
#include "tensor/ops.h"

namespace autocts {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(SerializeTest, RoundTripRestoresParameters) {
  Rng rng(1);
  Mlp a(4, 8, 2, &rng);
  std::string path = TempPath("mlp.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  Rng rng2(99);  // Different init.
  Mlp b(4, 8, 2, &rng2);
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  std::vector<Tensor> pa = a.Parameters(), pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data(), pb[i].data());
  }
}

TEST(SerializeTest, LoadedModelComputesIdentically) {
  Rng rng(2);
  Mlp a(3, 6, 1, &rng);
  std::string path = TempPath("mlp2.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  Rng rng2(55);
  Mlp b(3, 6, 1, &rng2);
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  Tensor x = Tensor::Randn({5, 3}, &rng);
  EXPECT_EQ(a.Forward(x).data(), b.Forward(x).data());
}

TEST(SerializeTest, RejectsWrongArchitecture) {
  Rng rng(3);
  Mlp small(2, 4, 1, &rng);
  std::string path = TempPath("small.bin");
  ASSERT_TRUE(SaveParameters(small, path).ok());
  Mlp big(2, 8, 1, &rng);
  Status s = LoadParameters(&big, path);
  EXPECT_FALSE(s.ok());
}

TEST(SerializeTest, RejectsMissingFile) {
  Rng rng(4);
  Mlp m(2, 4, 1, &rng);
  EXPECT_FALSE(LoadParameters(&m, TempPath("nonexistent.bin")).ok());
}

TEST(SerializeTest, RejectsCorruptMagic) {
  std::string path = TempPath("corrupt.bin");
  std::ofstream(path) << "this is not a checkpoint";
  Rng rng(5);
  Mlp m(2, 4, 1, &rng);
  EXPECT_FALSE(LoadParameters(&m, path).ok());

  // The retired checksum-less "AUTOCTS!" frame (magic, count, tensors) is
  // rejected too, even when its tensor list matches the module exactly.
  ASSERT_TRUE(SaveParameters(m, path).ok());
  const std::string current = ReadFileToString(path).value();
  std::string retired;
  AppendPod(&retired, uint64_t{0x4155544f43545321ull});  // "AUTOCTS!"
  retired += current.substr(sizeof(uint64_t) + sizeof(uint32_t));
  ASSERT_TRUE(AtomicWriteFile(path, retired).ok());
  Rng rng2(8);
  Mlp fresh(2, 4, 1, &rng2);
  const std::vector<float> before = fresh.Parameters()[0].data();
  Status loaded = LoadParameters(&fresh, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("magic"), std::string::npos)
      << loaded.message();
  EXPECT_EQ(fresh.Parameters()[0].data(), before);
}

TEST(SerializeTest, TruncatedFileDoesNotHalfLoad) {
  Rng rng(6);
  Mlp a(4, 8, 2, &rng);
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  // Truncate the file to 3/4 of its size.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << contents.substr(0, contents.size() * 3 / 4);
  Rng rng2(7);
  Mlp b(4, 8, 2, &rng2);
  std::vector<float> before = b.Parameters()[0].data();
  EXPECT_FALSE(LoadParameters(&b, path).ok());
  // Parameters untouched on failure.
  EXPECT_EQ(b.Parameters()[0].data(), before);
}

TEST(SerializeTest, ComparatorCheckpointRoundTrip) {
  Comparator::Options opts;
  opts.gin.embed_dim = 8;
  opts.repr_dim = 4;
  opts.f1 = 8;
  opts.f2 = 4;
  Comparator a(opts, 11);
  std::string path = TempPath("comp.bin");
  ASSERT_TRUE(SaveParameters(a, path).ok());
  Comparator b(opts, 22);
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  JointSearchSpace space;
  Rng rng(12);
  ArchHyperEncoding e1 = EncodeArchHyper(space.Sample(&rng));
  ArchHyperEncoding e2 = EncodeArchHyper(space.Sample(&rng));
  Tensor task = Tensor::Randn({4}, &rng);
  EXPECT_DOUBLE_EQ(a.CompareProb(e1, e2, task), b.CompareProb(e1, e2, task));
}

TEST(SerializeTest, FrameworkCheckpointMarksPretrained) {
  ScaleConfig cfg = ScaleConfig::Test();
  AutoCtsOptions opts = AutoCtsOptions::ForScale(cfg);
  opts.ts2vec.repr_dim = 4;
  opts.ts2vec.hidden = 4;
  opts.comparator.repr_dim = 4;
  opts.comparator.gin.embed_dim = 8;
  opts.comparator.f1 = 8;
  opts.comparator.f2 = 4;
  AutoCtsPlusPlus a(opts);
  // Save without pre-training (parameters are just the random init — the
  // checkpoint format does not care).
  std::string path = TempPath("framework");
  ASSERT_TRUE(a.SaveCheckpoint(path).ok());
  AutoCtsPlusPlus b(opts);
  EXPECT_FALSE(b.pretrained());
  ASSERT_TRUE(b.LoadCheckpoint(path).ok());
  EXPECT_TRUE(b.pretrained());
  // A loaded framework ranks straight away, and ranking is eval-mode only.
  EXPECT_FALSE(b.comparator()->training());
  EXPECT_FALSE(b.encoder()->training());
}

}  // namespace
}  // namespace autocts
