// Unit tests for catalog, relations and databases.
#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace seqlog {
namespace {

TEST(CatalogTest, GetOrCreateAssignsDenseIds) {
  Catalog c;
  auto p = c.GetOrCreate("p", 2);
  auto q = c.GetOrCreate("q", 1);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());
  EXPECT_NE(p.value(), q.value());
  EXPECT_EQ(c.Name(p.value()), "p");
  EXPECT_EQ(c.Arity(p.value()), 2u);
  EXPECT_EQ(c.GetOrCreate("p", 2).value(), p.value());
}

TEST(CatalogTest, ArityConflictIsAnError) {
  Catalog c;
  ASSERT_TRUE(c.GetOrCreate("p", 2).ok());
  EXPECT_FALSE(c.GetOrCreate("p", 3).ok());
}

TEST(CatalogTest, FindMissing) {
  Catalog c;
  EXPECT_EQ(c.Find("nope").status().code(), StatusCode::kNotFound);
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(std::vector<SeqId>{1, 2}));
  EXPECT_FALSE(r.Insert(std::vector<SeqId>{1, 2}));
  EXPECT_TRUE(r.Insert(std::vector<SeqId>{2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(std::vector<SeqId>{1, 2}));
  EXPECT_FALSE(r.Contains(std::vector<SeqId>{1, 3}));
}

TEST(RelationTest, ReserveKeepsContentsAndIndexes) {
  Relation r(2);
  r.Insert(std::vector<SeqId>{1, 2});
  r.Reserve(1000);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(std::vector<SeqId>{1, 2}));
  for (SeqId v = 0; v < 500; ++v) {
    r.Insert(std::vector<SeqId>{v, v + 1});
  }
  EXPECT_EQ(r.size(), 500u);  // {1, 2} was re-inserted, deduplicated
  std::span<const RowId> rows = r.RowsWithValue(1, 2);
  EXPECT_EQ(rows.size(), 1u);
}

TEST(RelationTest, ScanOrderIsInsertionOrder) {
  // Scan positions are insertion order — the invariant index probes and
  // snapshot watermarks rely on.
  Relation r(2);
  for (SeqId i = 0; i < 100; ++i) {
    ASSERT_TRUE(r.Insert(std::vector<SeqId>{i * 7 + 1, i}));
  }
  for (uint32_t pos = 0; pos < 100; ++pos) {
    TupleView row = r.RowAt(pos);
    EXPECT_EQ(row[0], pos * 7 + 1);
    EXPECT_EQ(row[1], pos);
  }
}

TEST(RelationTest, ColumnIndexFindsRows) {
  Relation r(2);
  r.Insert(std::vector<SeqId>{1, 10});
  r.Insert(std::vector<SeqId>{1, 20});
  r.Insert(std::vector<SeqId>{2, 10});
  std::span<const RowId> rows = r.RowsWithValue(0, 1);
  EXPECT_EQ(rows.size(), 2u);
  rows = r.RowsWithValue(1, 10);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(r.RowsWithValue(0, 99).empty());
}

TEST(RelationTest, RowAccess) {
  Relation r(3);
  r.Insert(std::vector<SeqId>{7, 8, 9});
  TupleView row = r.RowAt(0);
  EXPECT_EQ(row[0], 7u);
  EXPECT_EQ(row[2], 9u);
}

TEST(RelationTest, ClearKeepsArity) {
  Relation r(2);
  r.Insert(std::vector<SeqId>{1, 2});
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_TRUE(r.Insert(std::vector<SeqId>{1, 2}));
}

TEST(RelationTest, ZeroArityRelationHoldsOneTuple) {
  Relation r(0);
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert({}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, ManyInsertsStaysConsistent) {
  Relation r(2);
  for (SeqId i = 0; i < 1000; ++i) {
    ASSERT_TRUE(r.Insert(std::vector<SeqId>{i, i * 2}));
  }
  EXPECT_EQ(r.size(), 1000u);
  for (SeqId i = 0; i < 1000; ++i) {
    ASSERT_TRUE(r.Contains(std::vector<SeqId>{i, i * 2}));
    ASSERT_EQ(r.RowsWithValue(0, i).size(), 1u);
  }
}

TEST(DatabaseTest, InsertAndLookup) {
  Catalog c;
  PredId p = c.GetOrCreate("p", 1).value();
  PredId q = c.GetOrCreate("q", 2).value();
  Database db(&c);
  EXPECT_TRUE(db.Insert(p, std::vector<SeqId>{5}));
  EXPECT_FALSE(db.Insert(p, std::vector<SeqId>{5}));
  EXPECT_TRUE(db.Insert(q, std::vector<SeqId>{5, 6}));
  EXPECT_EQ(db.TotalFacts(), 2u);
  EXPECT_TRUE(db.Contains(p, std::vector<SeqId>{5}));
  EXPECT_FALSE(db.Contains(q, std::vector<SeqId>{6, 5}));
}

TEST(DatabaseTest, GetMissingPredicateIsNull) {
  Catalog c;
  PredId p = c.GetOrCreate("p", 1).value();
  Database db(&c);
  EXPECT_EQ(db.Get(p), nullptr);
  db.GetOrCreate(p);
  EXPECT_NE(db.Get(p), nullptr);
}

TEST(DatabaseTest, UnionWith) {
  Catalog c;
  PredId p = c.GetOrCreate("p", 1).value();
  Database a(&c);
  Database b(&c);
  a.Insert(p, std::vector<SeqId>{1});
  b.Insert(p, std::vector<SeqId>{1});
  b.Insert(p, std::vector<SeqId>{2});
  EXPECT_TRUE(a.UnionWith(b).ok());
  EXPECT_EQ(a.TotalFacts(), 2u);
}

TEST(DatabaseTest, TryInsertChecksArity) {
  Catalog c;
  PredId p = c.GetOrCreate("p", 2).value();
  Database db(&c);
  Result<bool> ok = db.TryInsert(p, std::vector<SeqId>{1, 2});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value());
  Result<bool> dup = db.TryInsert(p, std::vector<SeqId>{1, 2});
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(dup.value());

  Result<bool> bad = db.TryInsert(p, std::vector<SeqId>{1});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("arity"), std::string::npos);
  EXPECT_EQ(db.TotalFacts(), 1u);  // malformed tuple was not stored
}

TEST(DatabaseTest, TryInsertChecksPredicateId) {
  Catalog c;
  (void)c.GetOrCreate("p", 1).value();
  Database db(&c);
  Result<bool> bad = db.TryInsert(/*pred=*/7, std::vector<SeqId>{1});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, UnionWithRejectsCrossCatalogArityMismatch) {
  // The same PredId means different predicates in different catalogs;
  // merging used to corrupt relations silently, now it is refused.
  Catalog c1;
  Catalog c2;
  PredId p1 = c1.GetOrCreate("p", 1).value();
  PredId p2 = c2.GetOrCreate("q", 2).value();
  ASSERT_EQ(p1, p2);  // same id, different arity
  Database a(&c1);
  Database b(&c2);
  b.Insert(p2, std::vector<SeqId>{1, 2});
  Status s = a.UnionWith(b);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("arity"), std::string::npos);
}

TEST(DatabaseTest, UnionWithRejectsUnknownPredicateId) {
  Catalog c1;
  Catalog c2;
  PredId q = c2.GetOrCreate("q", 1).value();
  Database a(&c1);  // c1 is empty: q's id does not exist there
  Database b(&c2);
  b.Insert(q, std::vector<SeqId>{1});
  Status s = a.UnionWith(b);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, CloneIsDeepAndIndependent) {
  Catalog c;
  PredId p = c.GetOrCreate("p", 1).value();
  Database db(&c);
  db.Insert(p, std::vector<SeqId>{1});
  std::unique_ptr<Database> copy = db.Clone();
  EXPECT_EQ(copy->TotalFacts(), 1u);
  db.Insert(p, std::vector<SeqId>{2});
  EXPECT_EQ(db.TotalFacts(), 2u);
  EXPECT_EQ(copy->TotalFacts(), 1u);  // snapshot semantics
  EXPECT_TRUE(copy->Contains(p, std::vector<SeqId>{1}));
  EXPECT_FALSE(copy->Contains(p, std::vector<SeqId>{2}));
}

TEST(DatabaseDeathTest, InsertWrongArityDies) {
  Catalog c;
  PredId p = c.GetOrCreate("p", 2).value();
  Database db(&c);
  EXPECT_DEATH(db.Insert(p, std::vector<SeqId>{1}), "arity");
}

TEST(DatabaseDeathTest, InsertUnknownPredicateDies) {
  Catalog c;
  Database db(&c);
  EXPECT_DEATH(db.Insert(/*pred=*/3, std::vector<SeqId>{1}),
               "not in the catalog");
}

}  // namespace
}  // namespace seqlog
