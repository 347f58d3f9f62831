/**
 * @file
 * ORM tests: enhancer registration and DDL, CRUD equivalence of the
 * JPA and PJO providers across all four JPAB models, field-level
 * tracking, data deduplication, and the JPAB drivers themselves.
 */

#include <gtest/gtest.h>

#include "orm/entity_manager.hh"
#include "orm/jpa_provider.hh"
#include "orm/jpab_model.hh"
#include "orm/pjo_provider.hh"
#include "util/logging.hh"

namespace espresso {
namespace orm {
namespace {

/** One database + enhancer + em per provider under test. */
struct OrmRig
{
    explicit OrmRig(std::unique_ptr<Provider> p, JpabModel model)
        : provider(std::move(p))
    {
        db::DatabaseConfig cfg;
        cfg.rowRegionSize = 16u << 20;
        cfg.rowsPerTable = 4096;
        database = std::make_unique<db::Database>(cfg);
        registerJpabModel(enhancer, model);
        enhancer.createTables(*database);
        em = std::make_unique<EntityManager>(database.get(),
                                             provider.get(), &enhancer);
    }

    std::unique_ptr<Provider> provider;
    std::unique_ptr<db::Database> database;
    Enhancer enhancer;
    std::unique_ptr<EntityManager> em;
};

class OrmProviderTest : public ::testing::TestWithParam<bool>
{
  protected:
    std::unique_ptr<Provider>
    makeProvider() const
    {
        if (GetParam())
            return std::make_unique<PjoProvider>();
        return std::make_unique<JpaProvider>();
    }
};

TEST_P(OrmProviderTest, BasicCrudLifecycle)
{
    OrmRig rig(makeProvider(), JpabModel::kBasic);
    EntityManager &em = *rig.em;

    // Create (paper Fig. 3's snippet).
    em.begin();
    Entity *p = em.newEntity("PERSON");
    p->set("ID", db::DbValue::ofI64(1));
    p->set("FIRSTNAME", db::DbValue::ofStr("Mingyu"));
    p->set("LASTNAME", db::DbValue::ofStr("Wu"));
    p->set("PHONE", db::DbValue::ofStr("555"));
    p->set("EMAIL", db::DbValue::ofStr("m@sjtu"));
    em.persist(p);
    em.commit();
    em.clear();

    // Retrieve.
    em.begin();
    Entity *q = em.find("PERSON", 1);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->get("FIRSTNAME").s, "Mingyu");
    EXPECT_EQ(q->get("EMAIL").s, "m@sjtu");
    EXPECT_EQ(em.find("PERSON", 999), nullptr);

    // Update.
    q->set("PHONE", db::DbValue::ofStr("556"));
    em.commit();
    em.clear();

    em.begin();
    Entity *r = em.find("PERSON", 1);
    EXPECT_EQ(r->get("PHONE").s, "556");
    EXPECT_EQ(r->get("FIRSTNAME").s, "Mingyu");

    // Delete.
    em.remove(r);
    em.commit();
    em.clear();

    em.begin();
    EXPECT_EQ(em.find("PERSON", 1), nullptr);
    em.commit();
}

TEST_P(OrmProviderTest, DestroyingAnOpenEntityManagerRollsBack)
{
    OrmRig rig(makeProvider(), JpabModel::kBasic);
    EntityManager &em = *rig.em;
    em.begin();
    Entity *p = em.newEntity("PERSON");
    p->set("ID", db::DbValue::ofI64(1));
    p->set("FIRSTNAME", db::DbValue::ofStr("Mingyu"));
    p->set("LASTNAME", db::DbValue::ofStr("Wu"));
    p->set("PHONE", db::DbValue::ofStr("555"));
    p->set("EMAIL", db::DbValue::ofStr("m@sjtu"));
    em.persist(p);
    em.commit();
    em.clear();

    {
        EntityManager doomed(rig.database.get(), rig.provider.get(),
                             &rig.enhancer);
        doomed.begin();
        // A statement on this thread joins the em's open transaction.
        rig.database->executeSql(
            "UPDATE PERSON SET PHONE = '999' WHERE ID = 1");
    }
    // The destroyed em rolled its transaction back and released it,
    // so this thread can open the next one.
    EXPECT_EQ(rig.database->busyWalShards(), 0u);
    em.begin();
    Entity *q = em.find("PERSON", 1);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->get("PHONE").s, "555");
    em.commit();
}

TEST_P(OrmProviderTest, InheritanceMapsToOneFlatTable)
{
    OrmRig rig(makeProvider(), JpabModel::kExt);
    EntityManager &em = *rig.em;

    em.begin();
    Entity *e = em.newEntity("PERSONEXT");
    e->set("ID", db::DbValue::ofI64(3));
    e->set("FIRSTNAME", db::DbValue::ofStr("Ada")); // inherited field
    e->set("PHONE", db::DbValue::ofStr("777"));     // own field
    em.persist(e);
    em.commit();
    em.clear();

    em.begin();
    Entity *f = em.find("PERSONEXT", 3);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->get("FIRSTNAME").s, "Ada");
    EXPECT_EQ(f->get("PHONE").s, "777");
    EXPECT_EQ(f->descriptor().super->name, "PERSONBASE");
    em.commit();
}

TEST_P(OrmProviderTest, CollectionsRoundTripAndUpdate)
{
    OrmRig rig(makeProvider(), JpabModel::kCollection);
    EntityManager &em = *rig.em;

    em.begin();
    Entity *e = em.newEntity("PERSONCOLL");
    e->set("ID", db::DbValue::ofI64(9));
    e->set("NAME", db::DbValue::ofStr("Coll"));
    e->collection(0) = {db::DbValue::ofStr("a"),
                        db::DbValue::ofStr("b")};
    e->touchCollection(0);
    em.persist(e);
    em.commit();
    em.clear();

    em.begin();
    Entity *f = em.find("PERSONCOLL", 9);
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(f->collection(0).size(), 2u);
    EXPECT_EQ(f->collection(0)[0].s, "a");
    EXPECT_EQ(f->collection(0)[1].s, "b");

    f->collection(0).push_back(db::DbValue::ofStr("c"));
    f->touchCollection(0);
    em.commit();
    em.clear();

    em.begin();
    Entity *g = em.find("PERSONCOLL", 9);
    ASSERT_EQ(g->collection(0).size(), 3u);
    EXPECT_EQ(g->collection(0)[2].s, "c");

    // Removing the entity removes its collection rows.
    em.remove(g);
    em.commit();
    EXPECT_EQ(rig.database->rowCount("PERSONCOLL_PHONES"), 0u);
}

TEST_P(OrmProviderTest, NodeReferencesResolve)
{
    OrmRig rig(makeProvider(), JpabModel::kNode);
    EntityManager &em = *rig.em;

    em.begin();
    for (int i = 0; i < 7; ++i) {
        Entity *n = em.newEntity("TREENODE");
        n->set("ID", db::DbValue::ofI64(i));
        n->set("NAME", db::DbValue::ofStr("n" + std::to_string(i)));
        n->set("LEFTID", db::DbValue::ofI64(2 * i + 1 < 7 ? 2 * i + 1
                                                          : 0));
        n->set("RIGHTID", db::DbValue::ofI64(2 * i + 2 < 7 ? 2 * i + 2
                                                           : 0));
        em.persist(n);
    }
    em.commit();
    em.clear();

    // Follow foreign keys root -> right child -> right child.
    em.begin();
    Entity *root = em.find("TREENODE", 0);
    ASSERT_NE(root, nullptr);
    Entity *right = em.find("TREENODE", root->get("RIGHTID").i);
    ASSERT_NE(right, nullptr);
    EXPECT_EQ(right->get("NAME").s, "n2");
    Entity *rr = em.find("TREENODE", right->get("RIGHTID").i);
    EXPECT_EQ(rr->get("NAME").s, "n6");
    em.commit();
}

TEST_P(OrmProviderTest, JpabDriversRunAllOps)
{
    for (JpabModel model :
         {JpabModel::kBasic, JpabModel::kExt, JpabModel::kCollection,
          JpabModel::kNode}) {
        OrmRig rig(makeProvider(), model);
        const int kN = 120;
        JpabResult created =
            runJpabOp(*rig.em, model, JpabOp::kCreate, kN);
        EXPECT_EQ(created.operations, static_cast<std::uint64_t>(kN));
        EXPECT_EQ(rig.database->rowCount(jpabEntityName(model)),
                  static_cast<std::size_t>(kN));
        runJpabOp(*rig.em, model, JpabOp::kRetrieve, kN);
        runJpabOp(*rig.em, model, JpabOp::kUpdate, kN);
        JpabResult deleted =
            runJpabOp(*rig.em, model, JpabOp::kDelete, kN);
        EXPECT_EQ(deleted.operations, static_cast<std::uint64_t>(kN));
        EXPECT_EQ(rig.database->rowCount(jpabEntityName(model)), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(BothProviders, OrmProviderTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "PJO" : "JPA";
                         });

TEST(OrmPjoTest, FieldLevelTrackingSendsOnlyDirtyColumns)
{
    OrmRig rig(std::make_unique<PjoProvider>(/*enable_dedup=*/false),
               JpabModel::kBasic);
    EntityManager &em = *rig.em;

    em.begin();
    Entity *p = em.newEntity("PERSON");
    p->set("ID", db::DbValue::ofI64(1));
    p->set("FIRSTNAME", db::DbValue::ofStr("Ann"));
    em.persist(p);
    em.commit();
    em.clear();

    em.begin();
    Entity *q = em.find("PERSON", 1);
    q->set("PHONE", db::DbValue::ofStr("123"));
    EXPECT_TRUE(q->stateManager().isDirty(
        q->descriptor().fieldIndex("PHONE")));
    EXPECT_FALSE(q->stateManager().isDirty(
        q->descriptor().fieldIndex("FIRSTNAME")));
    // Sabotage a clean local value: the masked write must not ship it.
    q->mutableValues()[q->descriptor().fieldIndex("FIRSTNAME")] =
        db::DbValue::ofStr("GARBAGE");
    em.commit();
    em.clear();

    em.begin();
    Entity *r = em.find("PERSON", 1);
    EXPECT_EQ(r->get("PHONE").s, "123");
    EXPECT_EQ(r->get("FIRSTNAME").s, "Ann"); // garbage was masked out
    em.commit();
}

TEST(OrmPjoTest, DataDeduplicationRedirectsReads)
{
    OrmRig rig(std::make_unique<PjoProvider>(/*enable_dedup=*/true),
               JpabModel::kBasic);
    EntityManager &em = *rig.em;

    em.begin();
    Entity *p = em.newEntity("PERSON");
    p->set("ID", db::DbValue::ofI64(1));
    p->set("FIRSTNAME", db::DbValue::ofStr("Ann"));
    em.persist(p);
    em.commit();

    // Post-commit, the DRAM copy is released, reads go to the
    // persistent copy (Fig. 14d).
    ASSERT_TRUE(p->stateManager().deduplicated());
    std::size_t fn = p->descriptor().fieldIndex("FIRSTNAME");
    EXPECT_EQ(p->localValues()[fn].type, db::DbType::kNull);
    EXPECT_EQ(p->get("FIRSTNAME").s, "Ann");

    // Copy-on-write shadow: a write stays local until commit.
    em.begin();
    p->set("FIRSTNAME", db::DbValue::ofStr("Annie"));
    EXPECT_EQ(p->get("FIRSTNAME").s, "Annie"); // shadow visible
    db::DbRecord backend;
    ASSERT_TRUE(rig.database->fetchRecord("PERSON", 1, &backend));
    EXPECT_EQ(backend.values[fn].s, "Ann"); // backend not yet touched
    em.commit();
    ASSERT_TRUE(rig.database->fetchRecord("PERSON", 1, &backend));
    EXPECT_EQ(backend.values[fn].s, "Annie");
}

TEST(OrmTest, EnhancerValidation)
{
    Enhancer enhancer;
    EntityDescriptor bad;
    bad.name = "BAD";
    bad.fields = {{"NAME", db::DbType::kStr, false, ""}};
    EXPECT_THROW(enhancer.registerEntity(bad), FatalError);

    EntityDescriptor orphan;
    orphan.name = "ORPHAN";
    orphan.superName = "MISSING";
    orphan.fields = {{"ID", db::DbType::kI64, false, ""}};
    EXPECT_THROW(enhancer.registerEntity(orphan), FatalError);
}

} // namespace
} // namespace orm
} // namespace espresso
