(* The instance below reproduces every edge label of the paper's Figure 2(b)
   kernel:
     (a,t)=(1:1) (a,u)=(1:1) (a,c)=(1:2)
     (c,t)=(2:2) (c,p)=(2:3) (c,s)=(2:5)
     (s,t)=(2:2, 1:1)  (s,p)=(5:9, 1:2, 2:3)  (s,s)=(0:0, 2:2, 1:2)
   i.e. five recursion-level-0 s nodes of which two have one s child each,
   one level-1 s with two s children, etc. *)
let document =
  "<a>\
   <t/><u/>\
   <c>\
   <t/><p/>\
   <s><t/><p/><p/></s>\
   <s><p/><p/><s><s><p/><p/></s><s><p/></s></s></s>\
   <s><t/><p/><p/></s>\
   </c>\
   <c>\
   <t/><p/><p/>\
   <s><p/><p/><s><t/><p/><p/></s></s>\
   <s><p/></s>\
   </c>\
   </a>"

let tree () = Xml.Tree.of_string document
