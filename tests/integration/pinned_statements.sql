-- 120 statements of the grammar in test_sqlite_oracle.py, the first distinct ones
-- hypothesis draws with derandomize=True; test_golden_meters.py pins their meters.
SELECT c.custkey FROM customer c
SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
SELECT l.quantity FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey ORDER BY 1 DESC
SELECT c.custkey FROM customer c JOIN supplier s ON c.nation = s.nation
SELECT SUM(c.nation + c.nation) AS a0, MIN(s.suppkey) AS a1, COUNT(*) AS a2 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation AND s.nation IN (21, 15) WHERE c.custkey = 35 HAVING COUNT(*) > 1
SELECT p.prodkey FROM product p
SELECT DISTINCT p.category FROM product p ORDER BY 1 DESC
SELECT o.orderkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey
SELECT l.extprice, AVG(l.orderkey + o.totalprice) AS a0 FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY l.extprice
SELECT c.custkey FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 0
SELECT s.rating, MIN(s.suppkey) AS a0, AVG(c.acctbal + c.custkey) AS a1 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.rating IS NULL GROUP BY s.rating HAVING COUNT(*) > 4 ORDER BY 1 ASC
SELECT s.rating, MIN(s.suppkey) AS a0, AVG(c.acctbal + c.acctbal) AS a1 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.rating IS NULL GROUP BY s.rating HAVING COUNT(*) > 4 ORDER BY 1 ASC
SELECT s.rating, MIN(s.suppkey) AS a0, AVG(c.acctbal + s.suppkey) AS a1 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.rating IS NULL GROUP BY s.rating HAVING COUNT(*) > 4 ORDER BY 1 ASC
SELECT s.rating, AVG(s.suppkey) AS a0, AVG(c.custkey) AS a1 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.rating IS NULL GROUP BY s.rating ORDER BY 1 ASC LIMIT 0
SELECT s.rating, AVG(s.suppkey) AS a0, AVG(c.custkey) AS a1 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.rating IS NULL GROUP BY s.rating ORDER BY 1 ASC LIMIT 2
SELECT s.rating, AVG(s.suppkey) AS a0, AVG(s.suppkey) AS a1 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.rating IS NULL GROUP BY s.rating ORDER BY 1 ASC LIMIT 2
SELECT c.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey
SELECT o.orderkey, o.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.priority IS NOT NULL WHERE NOT (o.priority IS NULL)
SELECT o.orderkey, o.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.priority IS NOT NULL WHERE NOT (c.segment LIKE '%A%')
SELECT o.orderkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.priority <= 1 WHERE NOT (c.custkey BETWEEN 0 AND 0)
SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey AND l.orderkey < 0
SELECT SUM(o.orderkey) AS a0, MIN(o.priority) AS a1 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey AND l.quantity BETWEEN 3 AND 34 WHERE NOT (l.quantity BETWEEN 21 AND 39) HAVING COUNT(*) > 2
SELECT SUM(o.orderkey) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey AND l.quantity BETWEEN 3 AND 34 WHERE NOT (l.quantity BETWEEN 21 AND 39)
SELECT SUM(o.orderkey) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey AND l.quantity BETWEEN 3 AND 34 WHERE NOT (o.totalprice BETWEEN 100.00 AND 100.00)
SELECT SUM(o.orderkey) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey AND l.quantity BETWEEN 3 AND 34 WHERE NOT (o.orderkey BETWEEN 0 AND 0)
SELECT SUM(o.orderkey) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey AND l.orderkey BETWEEN 0 AND 0 WHERE NOT (o.orderkey BETWEEN 0 AND 0)
SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE o.orderkey < 0
SELECT l.prodkey, COUNT(l.quantity) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE (o.priority >= 4) OR o.totalprice IN (2246.16, 3171.07) GROUP BY l.prodkey HAVING COUNT(*) > 1 ORDER BY 1 ASC
SELECT l.prodkey, COUNT(l.quantity) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE (o.totalprice >= 100.00) OR o.totalprice IN (2246.16, 3171.07) GROUP BY l.prodkey HAVING COUNT(*) > 1 ORDER BY 1 ASC
SELECT l.prodkey, COUNT(l.quantity) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE NOT ((o.totalprice >= 100.00) OR o.totalprice IN (2246.16, 3171.07)) GROUP BY l.prodkey HAVING COUNT(*) > 1 ORDER BY 1 ASC
SELECT l.prodkey, COUNT(l.quantity) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE NOT ((l.quantity >= 1) OR o.totalprice IN (2246.16, 3171.07)) GROUP BY l.prodkey HAVING COUNT(*) > 1 ORDER BY 1 ASC
SELECT DISTINCT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE NOT ((o.totalprice >= 100.00) AND o.totalprice IN (100.00)) ORDER BY 1 ASC
SELECT COUNT(*) AS a0 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE (o.totalprice >= 100.00) AND o.totalprice < 100.00 HAVING COUNT(*) > 0
SELECT SUM(l.quantity + o.totalprice) AS a0, COUNT(*) AS a1 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
SELECT SUM(l.quantity + l.quantity) AS a0, COUNT(*) AS a1 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
SELECT COUNT(*) AS a0, SUM(l.quantity) AS a1 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
SELECT DISTINCT l.quantity, l.prodkey, l.extprice FROM lineitem l
SELECT DISTINCT l.prodkey, l.quantity, l.extprice FROM lineitem l
SELECT l.prodkey, l.quantity, l.extprice FROM lineitem l
SELECT DISTINCT l.prodkey FROM lineitem l
SELECT MIN(o.orderkey) AS a0, COUNT(*) AS a1 FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey AND o.priority IS NULL HAVING COUNT(*) > 0
SELECT MIN(o.priority) AS a0, COUNT(*) AS a1 FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey AND o.priority IS NULL HAVING COUNT(*) > 0
SELECT MIN(o.priority) AS a0 FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey AND o.priority IS NULL
SELECT c.nation FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey AND o.priority IS NULL
SELECT AVG(s.suppkey) AS a0, COUNT(*) AS a1, COUNT(*) AS a2 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation HAVING COUNT(*) > 4
SELECT AVG(s.suppkey) AS a0 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation
SELECT MAX(c.acctbal) AS a0, MIN(c.nation) AS a1, AVG(c.custkey - c.custkey) AS a2 FROM customer c WHERE NOT (c.nation < 23)
SELECT MAX(c.acctbal) AS a0, MIN(c.nation) AS a1, AVG(c.custkey - c.custkey) AS a2 FROM customer c WHERE NOT (c.nation < 3)
SELECT MAX(c.acctbal) AS a0, MIN(c.nation) AS a1, AVG(c.acctbal - c.custkey) AS a2 FROM customer c WHERE NOT (c.nation < 3)
SELECT COUNT(c.custkey) AS a0 FROM customer c HAVING COUNT(*) > 0
SELECT COUNT(c.custkey) AS a0 FROM customer c HAVING COUNT(*) > 1
SELECT c.nation FROM customer c
SELECT MAX(l.extprice) AS a0, AVG(l.quantity) AS a1, MAX(l.prodkey) AS a2 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 32.80 AND 500.00 WHERE NOT ((p.brand NOT LIKE '%ING') AND l.quantity IS NULL) HAVING COUNT(*) > 5
SELECT MAX(l.extprice) AS a0, AVG(l.quantity) AS a1, MAX(l.prodkey) AS a2 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 32.80 AND 500.00 WHERE NOT ((p.brand NOT LIKE '%ING') AND l.quantity BETWEEN 1 AND 1) HAVING COUNT(*) > 5
SELECT MAX(l.quantity) AS a0, AVG(l.quantity) AS a1, MAX(l.prodkey) AS a2 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 32.80 AND 500.00 WHERE NOT ((p.brand NOT LIKE '%ING') AND l.quantity BETWEEN 1 AND 1) HAVING COUNT(*) > 5
SELECT MAX(l.quantity) AS a0, AVG(l.quantity) AS a1, MAX(l.prodkey) AS a2 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 32.80 AND 500.00 WHERE NOT ((l.quantity BETWEEN 1 AND 1) AND l.quantity BETWEEN 1 AND 1) HAVING COUNT(*) > 5
SELECT l.quantity, SUM(l.extprice) AS a0 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 32.80 AND 500.00 WHERE NOT ((l.quantity BETWEEN 1 AND 1) AND l.quantity BETWEEN 1 AND 1) GROUP BY l.quantity
SELECT SUM(l.prodkey) AS a0 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 32.80 AND 500.00 WHERE NOT ((l.quantity BETWEEN 1 AND 1) AND l.quantity BETWEEN 1 AND 1)
SELECT SUM(l.prodkey) AS a0 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey AND p.price BETWEEN 1.00 AND 32.80 WHERE NOT ((l.quantity BETWEEN 1 AND 1) AND l.quantity BETWEEN 1 AND 1)
SELECT c.nation, MAX(o.custkey) AS a0, MIN(o.totalprice) AS a1 FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE NOT (((o.custkey <> 30) AND o.totalprice <= 145.63) OR o.custkey <= 7) GROUP BY c.nation
SELECT c.nation, MAX(o.custkey) AS a0, MIN(o.totalprice) AS a1 FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE NOT (((o.totalprice <= 145.63) AND o.totalprice <= 145.63) OR o.custkey <= 7) GROUP BY c.nation
SELECT c.nation, MAX(o.custkey) AS a0, MIN(o.totalprice) AS a1 FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE NOT (((o.totalprice <= 145.63) AND o.totalprice <= 145.63) OR o.custkey <= 2) GROUP BY c.nation
SELECT c.nation, MAX(o.custkey) AS a0, MIN(o.totalprice) AS a1 FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE NOT (((o.totalprice <= 145.63) AND o.totalprice <= 145.63) OR o.totalprice <= 100.00) GROUP BY c.nation
SELECT c.nation, c.custkey, c.segment FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE ((o.totalprice <= 145.63) AND o.totalprice <= 145.63) AND o.totalprice <= 100.00
SELECT c.nation, c.custkey, c.segment FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE ((o.totalprice <= 100.00) AND o.totalprice <= 145.63) AND o.totalprice <= 100.00
SELECT c.nation, c.custkey, c.segment FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.orderkey = 781 WHERE NOT (((o.totalprice <= 100.00) AND o.totalprice <= 145.63) AND o.totalprice <= 100.00)
SELECT DISTINCT p.brand FROM product p WHERE NOT (p.price IS NULL) ORDER BY 1 DESC
SELECT COUNT(*) AS a0, COUNT(p.prodkey) AS a1, COUNT(*) AS a2 FROM product p
SELECT COUNT(p.prodkey) AS a0, COUNT(p.prodkey) AS a1, COUNT(*) AS a2 FROM product p
SELECT c.acctbal, s.nation, MIN(c.custkey) AS a0, MAX(s.rating) AS a1, MIN(s.suppkey) AS a2 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.nation IS NOT NULL WHERE s.nation < 10 GROUP BY c.acctbal, s.nation HAVING COUNT(*) > 2
SELECT c.acctbal, s.nation, MIN(c.custkey) AS a0, MAX(s.rating) AS a1, MIN(s.suppkey) AS a2 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 10 WHERE s.nation < 10 GROUP BY c.acctbal, s.nation HAVING COUNT(*) > 2
SELECT c.acctbal, s.nation, MIN(c.custkey) AS a0, MAX(c.custkey) AS a1, MIN(s.suppkey) AS a2 FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 10 WHERE s.nation < 10 GROUP BY c.acctbal, s.nation HAVING COUNT(*) > 2
SELECT DISTINCT c.segment FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 10 WHERE (s.suppkey < 0) AND c.acctbal = 0.00
SELECT DISTINCT c.segment FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 10 WHERE (c.acctbal < 0.00) AND c.acctbal = 0.00
SELECT DISTINCT c.segment FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 10 WHERE (c.custkey < 10) AND c.acctbal = 0.00
SELECT DISTINCT c.segment FROM customer c JOIN supplier s ON c.nation = s.nation AND s.suppkey < 10 WHERE (c.acctbal < 0.10) AND c.acctbal = 0.00
SELECT c.segment, c.acctbal, MIN(s.nation) AS a0, AVG(c.nation) AS a1, AVG(c.nation) AS a2 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation WHERE NOT (s.rating > 5) GROUP BY c.segment, c.acctbal ORDER BY 1 ASC, 2 ASC LIMIT 6
SELECT c.segment, c.acctbal, AVG(s.nation) AS a0, SUM(c.custkey) AS a1, SUM(c.custkey) AS a2 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation WHERE NOT (s.rating > 5) GROUP BY c.segment, c.acctbal HAVING COUNT(*) > 0
SELECT c.segment, c.acctbal, AVG(s.nation) AS a0, SUM(c.custkey) AS a1, SUM(c.custkey) AS a2 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation WHERE NOT (s.rating > 5) GROUP BY c.segment, c.acctbal HAVING COUNT(*) > 5
SELECT c.segment, c.acctbal, MIN(c.acctbal) AS a0, MAX(c.custkey) AS a1 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation WHERE NOT (s.rating > 5) GROUP BY c.segment, c.acctbal
SELECT c.segment, c.acctbal, MIN(c.acctbal) AS a0, MAX(c.custkey) AS a1 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation WHERE NOT (s.rating > 2) GROUP BY c.segment, c.acctbal
SELECT AVG(c.acctbal) AS a0 FROM customer c LEFT JOIN supplier s ON c.nation = s.nation HAVING COUNT(*) > 0
SELECT DISTINCT l.extprice FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
SELECT l.extprice FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey
SELECT DISTINCT c.acctbal FROM customer c JOIN orders o ON c.custkey = o.custkey WHERE c.segment LIKE '%ING' ORDER BY 1 DESC
SELECT DISTINCT c.acctbal FROM customer c JOIN orders o ON c.custkey = o.custkey WHERE c.segment LIKE '%ING'
SELECT AVG(p.prodkey * p.category) AS a0 FROM lineitem l JOIN product p ON l.prodkey = p.prodkey
SELECT l.prodkey FROM lineitem l JOIN product p ON l.prodkey = p.prodkey ORDER BY 1 ASC
SELECT DISTINCT l.orderkey FROM lineitem l JOIN product p ON l.prodkey = p.prodkey
SELECT l.quantity, COUNT(l.prodkey) AS a0, COUNT(l.orderkey) AS a1 FROM lineitem l GROUP BY l.quantity HAVING COUNT(*) > 1
SELECT l.quantity, COUNT(l.prodkey) AS a0, COUNT(l.prodkey) AS a1 FROM lineitem l GROUP BY l.quantity HAVING COUNT(*) > 1
SELECT l.quantity, COUNT(l.prodkey) AS a0 FROM lineitem l GROUP BY l.quantity
SELECT DISTINCT c.acctbal FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey
SELECT p.price, l.quantity, AVG(l.prodkey) AS a0 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey WHERE NOT (l.orderkey IN (389, 128, 800, 211)) GROUP BY p.price, l.quantity
SELECT p.price, l.quantity, AVG(l.prodkey) AS a0 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey WHERE NOT (l.orderkey IN (389, 1, 800, 211)) GROUP BY p.price, l.quantity
SELECT DISTINCT l.orderkey, l.prodkey FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey WHERE (l.orderkey IN (389, 0)) AND l.orderkey <= 0
SELECT COUNT(*) AS a0, COUNT(*) AS a1 FROM lineitem l LEFT JOIN product p ON l.prodkey = p.prodkey
SELECT o.custkey, l.prodkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.prodkey IN (22, 48, 37, 61)
SELECT o.custkey, l.prodkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.prodkey IN (22, 48, 37, 37)
SELECT o.custkey, l.prodkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.prodkey IN (48, 48, 37, 37)
SELECT o.orderkey, o.custkey, o.totalprice FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey
SELECT DISTINCT s.suppkey, s.rating, s.nation FROM supplier s WHERE ((s.nation IN (17)) OR s.suppkey IS NOT NULL) OR s.suppkey IN (21, 61, 17)
SELECT DISTINCT s.suppkey, s.rating, s.nation FROM supplier s WHERE ((s.nation IN (21)) OR s.suppkey IS NOT NULL) OR s.suppkey IN (21, 61, 17)
SELECT SUM(s.suppkey) AS a0, AVG(s.suppkey) AS a1, COUNT(*) AS a2 FROM supplier s WHERE s.nation IS NULL
SELECT COUNT(s.suppkey) AS a0, AVG(s.suppkey) AS a1, COUNT(*) AS a2 FROM supplier s WHERE s.nation IS NULL
SELECT s.rating FROM supplier s WHERE s.suppkey < 0
SELECT c.segment, c.custkey, AVG(o.custkey * o.totalprice) AS a0 FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.custkey IN (13) GROUP BY c.segment, c.custkey
SELECT c.segment, c.custkey, AVG(o.custkey * o.custkey) AS a0 FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.custkey IN (13) GROUP BY c.segment, c.custkey
SELECT o.orderkey, c.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.custkey IN (13) WHERE c.custkey IS NULL
SELECT c.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.custkey IN (13) WHERE c.custkey IS NULL
SELECT c.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.custkey IN (13) WHERE NOT (c.custkey IS NULL)
SELECT c.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey AND o.custkey IS NULL
SELECT l.orderkey, o.priority, AVG(l.prodkey + o.custkey) AS a0, MIN(o.orderkey) AS a1, AVG(o.orderkey + l.quantity) AS a2 FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.extprice <> 10.40 GROUP BY l.orderkey, o.priority
SELECT o.orderkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.extprice <> 10.40 WHERE o.orderkey < 3
SELECT o.orderkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.extprice <> 10.40 WHERE o.priority <> 1
SELECT COUNT(o.custkey) AS a0 FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.extprice <> 10.40
SELECT COUNT(o.custkey) AS a0 FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.extprice <> 10.00
SELECT COUNT(*) AS a0 FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey AND l.extprice <> 10.00
SELECT DISTINCT o.orderkey FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey
SELECT COUNT(o.custkey) AS a0 FROM orders o HAVING COUNT(*) > 0
