(* The four evaluation scripts of Figure 6, verbatim (S1's second aggregate
   is aliased S2, as in the Section I version of the script). *)

let s1 =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
|}

let s2 =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,A,Sum(S) AS S1 FROM R GROUP BY B,A;
R2 = SELECT A,C,Sum(S) AS S2 FROM R GROUP BY A,C;
R3 = SELECT A,Sum(S) AS S3 FROM R GROUP BY A;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
OUTPUT R3 TO "result3.out";
|}

let s3 =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) AS S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) AS S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C,S1,S2 FROM R1,R2 WHERE R1.B=R2.B;
T0 = EXTRACT A,B,C,D FROM "...\test2.log" USING LogExtractor;
T  = SELECT A,B,C,Sum(D) AS S FROM T0 GROUP BY A,B,C;
T1 = SELECT B,C,Sum(S) AS S1 FROM T GROUP BY B,C;
T2 = SELECT B,A,Sum(S) AS S2 FROM T GROUP BY B,A;
TT = SELECT T1.B,A,C,S1,S2 FROM T1,T2 WHERE T1.B=T2.B;
OUTPUT RR TO "result1.out";
OUTPUT TT TO "result2.out";
|}

let s4 =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) AS S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) AS S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C FROM R1,R2 WHERE R1.B=R2.B;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
OUTPUT RR TO "result3.out";
|}

(* Figure 5 / Section VIII-A: two independent shared groups under a single
   LCA, used by the round-count experiments. *)
let independent_pair =
  {|
R0 = EXTRACT A,B,C,D FROM "...\test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S2 FROM R GROUP BY B,C;
T0 = EXTRACT A,B,C,D FROM "...\test2.log" USING LogExtractor;
T  = SELECT A,B,C,Sum(D) AS S FROM T0 GROUP BY A,B,C;
T1 = SELECT A,B,Sum(S) AS S1 FROM T GROUP BY A,B;
T2 = SELECT B,C,Sum(S) AS S2 FROM T GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
OUTPUT T1 TO "result3.out";
OUTPUT T2 TO "result4.out";
|}
