import json

import pandas as pd
import pytest

from knowledgegraph__bh_ray.exporters.graph_json import page_graph_to_json
from knowledgegraph__bh_ray.exporters.neo4j_csv import edges_to_neo4j_csv, nodes_to_neo4j_csv
from knowledgegraph__bh_ray.exporters.rdf import nodes_edges_to_jsonld, nodes_edges_to_ttl
from knowledgegraph__bh_ray.functions.hashing import md5_id

NODES = pd.DataFrame(
    {
        "id": [md5_id("机器学习"), md5_id("监督学习"), md5_id("张三")],
        "name": ["机器学习", "监督学习", "张三"],
        "type": ["概念", "类别", "人物"],
        "parent": ["", md5_id("机器学习"), md5_id("机器学习")],
        "props_json": ['{"描述": "ML"}', "{}", '{"级别": "3"}'],
    }
)
EDGES = pd.DataFrame(
    {
        "subj": [md5_id("机器学习")],
        "pred": ["包含"],
        "obj": [md5_id("监督学习")],
        "subj_name": ["机器学习"],
        "obj_name": ["监督学习"],
        "props_json": ['{"强度": "0.9"}'],
    }
)


def test_neo4j_csv_layout():
    csv_text = nodes_to_neo4j_csv(NODES)
    lines = csv_text.strip().split("\r\n")
    # md2csv.py:114 header: :ID,name,type,parent + sorted prop:LABEL columns
    assert lines[0] == ":ID,name,type,parent,描述:LABEL,级别:LABEL"
    assert lines[1].startswith(f"{md5_id('机器学习')},机器学习,概念,")

    rel_text = edges_to_neo4j_csv(EDGES)
    rlines = rel_text.strip().split("\r\n")
    assert rlines[0] == ":START_ID,:END_ID,:TYPE,_o_source_,_o_target_,强度:LABEL"
    assert rlines[1] == f"{md5_id('机器学习')},{md5_id('监督学习')},包含,机器学习,监督学习,0.9"


def test_jsonld_semantics():
    out = nodes_edges_to_jsonld(NODES, EDGES)
    assert out[0]["@type"] == ["http://www.w3.org/2002/07/owl#Ontology"]
    by_label = {e["http://www.w3.org/2000/01/rdf-schema#label"][0]: e for e in out[1:]}
    ml = by_label["机器学习"]
    assert ml["@type"] == ["http://www.w3.org/2002/07/owl#Class"]
    assert ml["http://www.w3.org/2000/01/rdf-schema#comment"] == ["ML"]
    # class child → subClassOf; individual child → rdf:type (csv2rdf-jsonld.py:69-73)
    sup = by_label["监督学习"]
    assert "http://www.w3.org/2000/01/rdf-schema#subClassOf" in sup
    person = by_label["张三"]
    assert person["@type"] == ["http://www.w3.org/2002/07/owl#NamedIndividual"]
    assert "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" in person
    # relation folded into subject entity as {"@id": ...}
    pred = [k for k in ml if k.endswith("#包含")]
    assert pred and ml[pred[0]][0]["@id"].endswith(md5_id("监督学习"))


def test_jsonld_merge_on_load_dedups():
    once = nodes_edges_to_jsonld(NODES, EDGES)
    twice = nodes_edges_to_jsonld(NODES, EDGES, existing=once)
    assert len(twice) == len(once)  # same @ids merged, no growth
    ml = [e for e in twice if e.get("http://www.w3.org/2000/01/rdf-schema#label") == ["机器学习"]][0]
    pred = [k for k in ml if k.endswith("#包含")][0]
    assert len(ml[pred]) == 1  # relation list not duplicated


def test_ttl_namespaces():
    ttl = nodes_edges_to_ttl(NODES, EDGES)
    # classes in ontology ns, individuals in data ns (csv2ttl.py:43-47)
    assert f"ont:{md5_id('机器学习')} a owl:Class" in ttl
    assert f"data:{md5_id('张三')} a owl:NamedIndividual" in ttl
    assert "ont:包含 a owl:ObjectProperty" in ttl
    assert f"ont:{md5_id('监督学习')} rdfs:subClassOf ont:{md5_id('机器学习')}" in ttl


def test_page_graph_json_shape():
    records = pd.DataFrame(
        {
            "url": ["u1", "u2"],
            "name": ["页一", "页二"],
            "contents": ["摘要一", "摘要二"],
            "basic_info_json": ['{"中文名": "页一"}', "{}"],
            "catalog_json": ['["简介"]', "[]"],
            "paragraphs_json": ['["段落"]', "[]"],
            "references_json": ["[]", "[]"],
        }
    )
    nodes = pd.DataFrame({"url": ["u1", "u2", "u3"], "name": ["页一", "页二", "链接文本"],
                          "is_placeholder": [0, 0, 1]})
    edges = pd.DataFrame({"src_url": ["u1", "u1"], "dst_url": ["u2", "u3"],
                          "text": ["页二", "链接文本"]})
    graph = page_graph_to_json(records, nodes, edges)
    assert len(graph) == 3
    assert set(graph[0].keys()) == {
        "name", "contents", "children", "parents", "URL",
        "basic_info", "catalog", "content_paragraphs", "references",
    }  # constructor.py:121-131 record keys
    u1 = [g for g in graph if g["URL"] == "u1"][0]
    assert {c["name"] for c in u1["children"]} == {"页二", "链接文本"}
    u3 = [g for g in graph if g["URL"] == "u3"][0]
    assert u3["parents"][0]["name"] == "页一"
    assert u3["contents"] == ""  # placeholder has no crawled content


def test_page_graph_stream_matches_serial_bytes(ray_session, tmp_path):
    """The distributed fragment writer and the serial page_graph_to_json
    reference produce BYTE-identical files (same json.dump formatting,
    same min-text dedup, same index-sorted children/parents), and the
    streaming array parser round-trips the file element-for-element."""
    import json

    import ray.data as rd

    from knowledgegraph__bh_ray.exporters.graph_json import (
        iter_json_array,
        page_graph_fragments_ds,
        page_graph_to_json,
        write_json_array_stream,
    )

    records = pd.DataFrame(
        {
            "url": [f"u{i}" for i in range(6)],
            "name": [f"页{i}" for i in range(6)],
            "contents": [f"摘要{i}" for i in range(6)],
            "basic_info_json": ['{"中文名": "页"}'] * 6,
            "catalog_json": ['["简介"]'] * 6,
            "paragraphs_json": ['["段落"]'] * 6,
            "references_json": ["[]"] * 6,
        }
    )
    nodes = pd.DataFrame({
        "url": [f"u{i}" for i in range(8)],
        "name": [f"页{i}" for i in range(6)] + ["链接甲", "链接乙"],
        "is_placeholder": [0] * 6 + [1, 1],
    })
    edges = pd.DataFrame({
        # duplicate (u0,u1) with two texts — min text must win in BOTH paths
        "src_url": ["u0", "u0", "u0", "u1", "u2", "u5", "u3"],
        "dst_url": ["u1", "u1", "u7", "u2", "u0", "u6", "missing"],
        "text": ["乙文本", "甲文本", "链接乙", "页2", "页0", "链接甲", "悬空"],
    })
    serial = page_graph_to_json(records, nodes, edges)
    want = json.dumps(serial, ensure_ascii=False)

    frags = page_graph_fragments_ds(
        rd.from_pandas(records).repartition(3),
        rd.from_pandas(nodes).repartition(3),
        rd.from_pandas(edges).repartition(2),
    )
    out = str(tmp_path / "graph.json")
    n = write_json_array_stream(frags, out)
    got = open(out, encoding="utf-8").read()
    assert n == len(serial)
    assert got == want
    # streaming parse (tiny chunk forces the refill path) == json.loads
    parsed = list(iter_json_array(out, chunk_bytes=64))
    assert parsed == serial


def test_owl_rdfxml_roundtrip():
    """W7: emit RDF/XML → parse → triple set identical to the triple model;
    csv2owl.py semantics (Class vs NamedIndividual by the larger type set,
    parent-typed individuals, subClassOf, AnnotationProperty-first quirk,
    dangling relations dropped)."""
    from knowledgegraph__bh_ray.exporters.rdf import (
        CLASS_TYPES_OWL,
        nodes_edges_to_owl_triples,
        parse_rdfxml,
        triples_to_rdfxml,
    )

    edges = pd.concat(
        [
            EDGES,
            pd.DataFrame(
                {
                    "subj": [md5_id("机器学习")],
                    "pred": ["关联"],
                    "obj": ["deadbeef"],  # dangling → dropped
                    "subj_name": ["机器学习"],
                    "obj_name": ["鬼"],
                    "props_json": ["{}"],
                }
            ),
        ],
        ignore_index=True,
    )
    triples = nodes_edges_to_owl_triples(NODES, edges)
    RDFNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    OWLNS = "http://www.w3.org/2002/07/owl#"
    RDFSNS = "http://www.w3.org/2000/01/rdf-schema#"
    uris = {s for s, _, _ in triples}

    # ontology decl + typing
    assert any(o == ("uri", f"{OWLNS}Ontology") for _, _, o in triples)
    ml = [s for s in uris if s.endswith(md5_id("机器学习"))][0]
    assert (ml, f"{RDFNS}type", ("uri", f"{OWLNS}Class")) in triples
    # 类别 ∈ CLASS_TYPES_OWL → class; 人物 ∉ → individual typed by parent class
    assert "类别" in CLASS_TYPES_OWL and "人物" not in CLASS_TYPES_OWL
    zs = [s for s in uris if s.endswith(md5_id("张三"))][0]
    assert (zs, f"{RDFNS}type", ("uri", f"{OWLNS}NamedIndividual")) in triples
    assert (zs, f"{RDFNS}type", ("uri", ml)) in triples
    sup = [s for s in uris if s.endswith(md5_id("监督学习"))][0]
    assert (sup, f"{RDFSNS}subClassOf", ("uri", ml)) in triples
    # dangling relation dropped
    assert not any(o == ("uri", "deadbeef") or (isinstance(o, tuple) and o[1].endswith("deadbeef"))
                   for _, _, o in triples)
    # predicate declared as ObjectProperty with label
    pred_uri = [s for s, p, o in triples if o == ("uri", f"{OWLNS}ObjectProperty")][0]
    assert pred_uri.endswith("#包含")
    assert (pred_uri, f"{RDFSNS}label", ("lit", "包含")) in triples

    xml_text = triples_to_rdfxml(triples)
    assert xml_text.startswith('<?xml version="1.0"')
    back = parse_rdfxml(xml_text)
    assert back == set(triples)


def test_distributed_ttl_sink_equals_monolithic(ray_session, tmp_path):
    """Partitioned TTL sink: header + fragments together carry exactly the
    node declarations and relation lines of the driver-side formatter."""
    import glob

    import ray.data as rd

    from knowledgegraph__bh_ray.exporters.distributed import write_ttl_partitioned
    from knowledgegraph__bh_ray.exporters.rdf import nodes_edges_to_ttl

    out = str(tmp_path / "ttl")
    edges_ds = rd.from_pandas(EDGES).repartition(2)
    manifest = write_ttl_partitioned(NODES, edges_ds, out)
    assert manifest["n_rows"].sum() == len(EDGES)

    whole = nodes_edges_to_ttl(NODES, EDGES)
    frag_text = "\n".join(
        open(p, encoding="utf-8").read() for p in sorted(glob.glob(out + "/edges-*.ttl"))
    )
    header_text = open(out + "/header.ttl", encoding="utf-8").read()
    # every non-prefix line of the monolithic TTL appears in header∪fragments
    got_lines = set(header_text.splitlines()) | set(frag_text.splitlines())
    for line in whole.splitlines():
        if line.startswith("@prefix") or not line.strip():
            continue
        assert line in got_lines, line


def test_distributed_relations_csv_sink(ray_session, tmp_path):
    import glob

    import ray.data as rd

    from knowledgegraph__bh_ray.exporters.distributed import (
        global_prop_keys,
        write_relations_csv_partitioned,
    )
    from knowledgegraph__bh_ray.exporters.neo4j_csv import edges_to_neo4j_csv

    out = str(tmp_path / "csv")
    edges_ds = rd.from_pandas(EDGES).repartition(2)
    manifest = write_relations_csv_partitioned(edges_ds, out)
    assert manifest["n_rows"].sum() == len(EDGES)
    assert global_prop_keys(rd.from_pandas(EDGES)) == ["强度"]

    whole = edges_to_neo4j_csv(EDGES).strip().split("\r\n")
    header, want_rows = whole[0], set(whole[1:])
    got_rows = set()
    for p in glob.glob(out + "/relations-*.csv"):
        lines = open(p, encoding="utf-8", newline="").read().strip().split("\r\n")
        assert lines[0] == header  # identical global header in every fragment
        got_rows.update(lines[1:])
    assert got_rows == want_rows


def test_iter_json_array_adversarial_content(tmp_path):
    """The incremental array parser must survive element content that looks
    like JSON structure — '], [', quotes, escaped quotes, braces, unicode —
    at pathological chunk sizes (every refill path, element boundaries
    landing mid-string)."""
    import json

    from knowledgegraph__bh_ray.exporters.graph_json import iter_json_array

    elems = [
        {"name": 'a"], [b', "v": 1},
        {"name": '塞}{入 ] 中文, \\" 逃逸', "nested": {"k": ["]", "[", ", "]}},
        {"escaped": 'line\nbreak\ttab \\ backslash "quote"'},
        {},
        {"deep": [[{"x": "]"}], []]},
        {"unicode": " ￿"},
    ]
    p = str(tmp_path / "adv.json")
    with open(p, "w", encoding="utf-8") as f:
        json.dump(elems, f, ensure_ascii=False)
    for chunk in (1, 2, 3, 7, 64, 1 << 22):
        assert list(iter_json_array(p, chunk_bytes=chunk)) == elems

    # empty array, with and without whitespace padding
    for body in ("[]", "  [ \n ]  "):
        q = str(tmp_path / "empty.json")
        open(q, "w").write(body)
        assert list(iter_json_array(q, chunk_bytes=2)) == []

    # truncated file must raise, not silently stop
    r = str(tmp_path / "trunc.json")
    open(r, "w").write('[{"a": 1}, {"b": ')
    with pytest.raises((ValueError, json.JSONDecodeError)):
        list(iter_json_array(r, chunk_bytes=4))
